package kv

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// table binds one field of each kind and records their values.
type table struct {
	n int
	f float64
	s string
	d time.Duration
}

func (tb *table) fields() map[string]Field {
	return map[string]Field{
		"n": Int(&tb.n), "f": Float(&tb.f), "s": String(&tb.s), "d": Duration(&tb.d),
	}
}

func TestParseBindsEveryKind(t *testing.T) {
	var tb table
	err := Parse("test", " n = 1e1 , f=0.25,s= a b ,d=1m30s, n=-3 ", ",", tb.fields())
	if err != nil {
		t.Fatal(err)
	}
	// Keys and values are trimmed; the repeated n keeps its last value.
	want := table{n: -3, f: 0.25, s: "a b", d: 90 * time.Second}
	if tb != want {
		t.Fatalf("got %+v, want %+v", tb, want)
	}
	for _, blank := range []string{"", "  ", "\t"} {
		if err := Parse("test", blank, ",", nil); err != nil {
			t.Errorf("blank spec %q: %v", blank, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{",", `test: entry "" is not key=value`},
		{"n=1,", `test: entry "" is not key=value`},
		{"n=1,,f=2", `test: entry "" is not key=value`},
		{"n", `test: entry "n" is not key=value`},
		{" =3", `test: entry "=3" is not key=value`},
		{"x=1", `test does not take key "x" (want d|f|n|s)`},
		{"n=abc", `test: parameter n=abc: "abc" is not a number`},
		{"n=", `test: parameter n=: "" is not a number`},
		{"n=2.5", `test: parameter n=2.5: "2.5" is not an integer`},
		{"n=1e300", `test: parameter n=1e300: "1e300" is beyond ±(2^53 - 1)`},
		{"n=9007199254740992", `test: parameter n=9007199254740992: "9007199254740992" is beyond ±(2^53 - 1)`},
		{"n=NaN", `test: parameter n=NaN: "NaN" is not finite`},
		{"f=-Inf", `test: parameter f=-Inf: "-Inf" is not finite`},
		{"f=1e400", `test: parameter f=1e400: "1e400" is not finite`},
		{"d=5", `test: parameter d=5: time: missing unit in duration "5"`},
	} {
		var tb table
		err := Parse("test", c.spec, ",", tb.fields())
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.spec, err, c.want)
		}
	}
	if err := Parse("none", "x=1", ",", nil); err == nil || err.Error() != `none does not take key "x" (want no keys)` {
		t.Errorf("empty table: %v", err)
	}
}

func TestIntBounds(t *testing.T) {
	for in, want := range map[string]int{
		"9007199254740991": 1<<53 - 1, "-9007199254740991": -(1<<53 - 1), "2.0": 2, "-0": 0, "0x1p4": 16,
	} {
		var n int
		if err := Int(&n)(in); err != nil || n != want {
			t.Errorf("Int(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
}

// FuzzSplit: the tokenizer never panics, every pair it returns is a
// trimmed non-empty key without '=' and a trimmed value, and joining the
// pairs back with the separator splits to the same pairs.
func FuzzSplit(f *testing.F) {
	for _, s := range []string{
		"", " ", ",", "a=1", " a = 1 , b=2", "a=b=c", "=", "a=,b=", "a=1,,b=2",
		"iter=7:decision=reuse", "x", "a =\t1\n", "\xff=\xfe",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, s string, colon bool) {
		sep := ","
		if colon {
			sep = ":"
		}
		pairs, err := split(s, sep)
		if err != nil {
			return
		}
		entries := make([]string, len(pairs))
		for i, p := range pairs {
			if p.key == "" || p.key != strings.TrimSpace(p.key) || strings.Contains(p.key, "=") {
				t.Fatalf("split(%q): bad key %q", s, p.key)
			}
			if p.val != strings.TrimSpace(p.val) {
				t.Fatalf("split(%q): untrimmed value %q", s, p.val)
			}
			entries[i] = p.key + "=" + p.val
		}
		joined := strings.Join(entries, sep)
		again, err := split(joined, sep)
		if err != nil || !reflect.DeepEqual(pairs, again) {
			t.Fatalf("split(%q) = %q, but its join %q splits to %q, %v", s, pairs, joined, again, err)
		}
	})
}
