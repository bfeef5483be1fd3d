// External test package: these tests exercise the engine through
// zeppelin.Full(), which now depends on runner (the parallel partition
// solve), so an in-package test importing it would form a cycle.
package runner_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// TestSerialParallelDeterminism is the acceptance criterion of the
// engine: a (dataset × method × seed) grid must produce bit-identical
// trainer.Results on one worker and on a saturated pool.
func TestSerialParallelDeterminism(t *testing.T) {
	var jobs []runner.Job
	for _, d := range []workload.Dataset{workload.ArXiv, workload.GitHub} {
		for mi, m := range []trainer.Method{baselines.TECP{}, baselines.HybridDP{}, zeppelin.Full()} {
			for s := 0; s < 3; s++ {
				jobs = append(jobs, runner.Job{
					Key: fmt.Sprintf("%s/m%d/s%d", d.Name, mi, s),
					Config: trainer.Config{
						Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
						TokensPerGPU: 1024, Seed: int64(1000 + 37*s),
					},
					Method:      m,
					Sample:      d.Batch,
					SamplerName: d.Name,
				})
			}
		}
	}
	serial, err := runner.New(runner.Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.New(runner.Options{Workers: 2 * runtime.GOMAXPROCS(0)}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !reflect.DeepEqual(serial.Get(j.Key), parallel.Get(j.Key)) {
			t.Fatalf("%s: serial and parallel results differ:\n%+v\nvs\n%+v",
				j.Key, serial.Get(j.Key), parallel.Get(j.Key))
		}
	}
}
