package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// smokeEnv sizes every workload down to a couple of ops on tiny worlds
// and serves the daemon in-process, so no binary is built.
func smokeEnv() *env { return newEnv("..", 1, 1, "", smokeSizing) }

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's metric tables; regenerate it with `rrbench -manifest`\n--- file ---\n%s\n--- tables ---\n%s", got, want)
	}
}

// TestSmoke runs every workload both ways and holds each run to the
// driver's contract: correct, every declared metric emitted exactly
// once with its unit, nothing undeclared, well-formed names, and a
// result line of exactly the contract's keys.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			t.Run(w.name+"/"+kind(traced), func(t *testing.T) {
				rep := runWorkload(smokeEnv(), w, traced)
				for _, p := range rep.Problems {
					t.Error(p)
				}
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
				}
				raw, err := rep.resultLine()
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(raw, &line); err != nil {
					t.Fatal(err)
				}
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
					t.Errorf("result line has keys other than correct, attempted, failed, metrics: %s", raw)
				}
				var metrics map[string]resultCell
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(metrics), len(defs))
				}
				for _, d := range defs {
					if !nameRE.MatchString(d.Name) {
						t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
					}
					if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || m.Unit == "" {
						t.Errorf("metric %s: emitted %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
					}
				}
				if traced {
					if _, err := os.Stat(smokeEnv().outDir() + "/" + w.name + ".trace.jsonl"); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestCorruptRenderFails: an op whose render differs from its spec's
// reference is a failed op and makes the run incorrect.
func TestCorruptRenderFails(t *testing.T) {
	e := smokeEnv()
	sess, err := campaignSetup(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops, window := sess.measure(e, nil)
	ops[0].hash[0] ^= 1
	rep := newReport(e, "campaign_k1", false)
	conclude(e, rep, sess, ops, window, nil)
	if rep.Failed != 1 || rep.correct() {
		t.Errorf("corrupted render: failed %d of %d, correct %v; want 1 failed and incorrect", rep.Failed, rep.Attempted, rep.correct())
	}
	raw, _ := rep.resultLine()
	if !bytes.Contains(raw, []byte(`"correct":false`)) || !bytes.Contains(raw, []byte(`"failed":1`)) {
		t.Errorf("result line does not report the failure: %s", raw)
	}
}

// TestPyQuartiles pins the spread statistic to what Python's
// statistics.quantiles(xs, n=4) returns, which the driver uses.
func TestPyQuartiles(t *testing.T) {
	q1, q2, q3 := pyQuartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
