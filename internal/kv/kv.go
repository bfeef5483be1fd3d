// Package kv is the one key=value grammar of every text spec the CLI and
// the wire accept: -serve (with its arrival and SLO-class parameters),
// -faults parameters, -space, -autoscale and -flip. Each grammar is a
// table of fields; the README's "Spec grammar" states the rules.
package kv

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Field parses one key's value and stores the result.
type Field func(value string) error

// Parse splits s on sep and hands each value to the field its key names,
// in order, so a repeated key keeps its last value. A blank s has no
// entries. grammar names the spec in errors ("serve", "tune space").
func Parse(grammar, s, sep string, fields map[string]Field) error {
	pairs, err := split(s, sep)
	if err != nil {
		return fmt.Errorf("%s: %w", grammar, err)
	}
	for _, p := range pairs {
		set, ok := fields[p.key]
		if !ok {
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := strings.Join(keys, "|")
			if want == "" {
				want = "no keys"
			}
			return fmt.Errorf("%s does not take key %q (want %s)", grammar, p.key, want)
		}
		if err := set(p.val); err != nil {
			return fmt.Errorf("%s: parameter %s=%s: %w", grammar, p.key, p.val, err)
		}
	}
	return nil
}

type pair struct{ key, val string }

// split cuts s into key=value pairs with the entry, key and value each
// trimmed; an empty entry, one without '=', or an empty key is an error.
func split(s, sep string) ([]pair, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var pairs []pair
	for _, e := range strings.Split(s, sep) {
		e = strings.TrimSpace(e)
		k, v, ok := strings.Cut(e, "=")
		if k = strings.TrimSpace(k); !ok || k == "" {
			return nil, fmt.Errorf("entry %q is not key=value", e)
		}
		pairs = append(pairs, pair{key: k, val: strings.TrimSpace(v)})
	}
	return pairs, nil
}

// ParseFloat reads a finite float.
func ParseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil && !errors.Is(err, strconv.ErrRange):
		return 0, fmt.Errorf("%q is not a number", s)
	case err != nil || math.IsNaN(f) || math.IsInf(f, 0): // ErrRange: beyond ±MaxFloat64
		return 0, fmt.Errorf("%q is not finite", s)
	}
	return f, nil
}

// Of binds a field through parse.
func Of[T any](p *T, parse func(string) (T, error)) Field {
	return func(v string) (err error) {
		*p, err = parse(v)
		return err
	}
}

// Int binds an integer field: a finite number with no fraction ("1e1"
// and "2.0" are integers) and magnitude below 2^53, so every accepted
// integer literal is exact.
func Int(p *int) Field { return Of(p, parseInt) }

// Float binds a finite float field.
func Float(p *float64) Field { return Of(p, ParseFloat) }

// String binds a string field.
func String(p *string) Field { return Of(p, func(v string) (string, error) { return v, nil }) }

// Duration binds a time.ParseDuration field ("200ms", "1m30s").
func Duration(p *time.Duration) Field { return Of(p, time.ParseDuration) }

func parseInt(s string) (int, error) {
	f, err := ParseFloat(s)
	switch {
	case err != nil:
		return 0, err
	case f != math.Trunc(f):
		return 0, fmt.Errorf("%q is not an integer", s)
	case math.Abs(f) >= 1<<53:
		return 0, fmt.Errorf("%q is beyond ±(2^53 - 1)", s)
	}
	return int(f), nil
}
