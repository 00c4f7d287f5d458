package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// inproc is the session of a workload that calls the library in the
// harness's own process, one op after another.
type inproc struct {
	specs []opSpec
	want  map[string]digest
	// op runs one op on spec under the root span, and stops the clock
	// itself (stopClock) before it checks the output.
	op func(spec opSpec, root span) opResult
}

func (s *inproc) reference() map[string]digest    { return s.want }
func (s *inproc) peakRSSMB() (float64, error)     { return peakRSSMB(os.Getpid()) }
func (s *inproc) check(ops []opResult, _ *report) {}
func (s *inproc) close() error                    { return nil }
func (s *inproc) run(i int, tr *tracer) opResult {
	// Every op starts from a collected heap, so that one op's garbage is
	// not collected on the next op's time.
	runtime.GC()
	res := s.op(s.specs[i%len(s.specs)], tr.root(i, "op"))
	res.traced = tr != nil
	return res
}

// stopClock ends an op's timed part: what follows in the op — reading
// counters, hashing, comparing replicas — is the harness checking the
// output, not the program producing it.
func stopClock(res *opResult, root span, t0 time.Time) {
	res.wall = time.Since(t0)
	res.root = root.end()
}

func (s *inproc) measure(e *env, tr *tracer) ([]opResult, time.Duration) {
	var ops []opResult
	start := time.Now()
	for i := 0; e.more(i, start); i++ {
		ops = append(ops, s.run(i, underTrace(tr, i)))
	}
	return ops, 0
}

// warmUp runs the two untimed ops every workload starts with and makes
// their outputs the reference for their specs, unless one exists.
func (s *inproc) warmUp() error {
	ops := []opResult{s.run(0, nil), s.run(1, nil)}
	verify(ops, s.want)
	for _, op := range ops {
		if op.err != "" {
			return fmt.Errorf("warm-up op: %s", op.err)
		}
	}
	return nil
}

// goldenStudy builds the spec the repository's golden renders were made
// with: scale 0.25, rate 200, shuffle seed 7, the default world.
func goldenStudy(shards int) (*study.Study, error) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.25)
	return study.New(cfg, study.Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
}

func checkGolden(e *env, name string, got []byte) error {
	path := filepath.Join(e.root, "internal", "study", "testdata", "golden", name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("render differs from golden %s", path)
	}
	return nil
}

func shardErr(s *study.Study) string {
	if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
		return fmt.Sprintf("%d shard(s) failed: %v", len(errs), errs[0])
	}
	return ""
}

// simProbes is the study's simulated probe count: host.inject summed
// over every engine it ran on, which is the same at any shard count.
func simProbes(s *study.Study) int64 {
	return int64(s.Metrics("op").Merged["host.inject"])
}

// campaignOp is one op of campaign_k1 and campaign_kn: build a world,
// run Table 1 and Figure 1 on it, render both.
func campaignOp(scale float64, shards int) func(opSpec, span) opResult {
	return func(spec opSpec, root span) opResult {
		t0 := time.Now()
		res := opResult{spec: spec}
		cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
		cfg.Seed = spec.world
		sp := root.child("study.New")
		s, err := study.New(cfg, study.Options{Rate: 200, ShuffleSeed: spec.shuffle, Shards: shards})
		sp.end()
		if err != nil {
			res.err = err.Error()
			return res
		}
		h := sha256.New()
		sp = root.child("study.RunResponsiveness")
		resp := s.RunResponsiveness()
		sp.end()
		sp = root.child("study.Render")
		resp.Render(h)
		sp.end()
		res.first = time.Since(t0)
		sp = root.child("study.RunReachability")
		reach := s.RunReachability(resp)
		sp.end()
		sp = root.child("study.Render")
		reach.Render(h)
		sp.end()
		stopClock(&res, root, t0)
		h.Sum(res.hash[:0])
		res.err = shardErr(s)
		res.work = simProbes(s)
		root.count("sim_probes", res.work)
		return res
	}
}

func campaignSetup(e *env, shards int) (session, error) {
	// Reference check: the golden spec through this workload's executor.
	g, err := goldenStudy(shards)
	if err != nil {
		return nil, err
	}
	var table1, fig1 bytes.Buffer
	resp := g.RunResponsiveness()
	resp.Render(&table1)
	g.RunReachability(resp).Render(&fig1)
	if err := checkGolden(e, "table1_responsiveness", table1.Bytes()); err != nil {
		return nil, err
	}
	if err := checkGolden(e, "fig1_reachability", fig1.Bytes()); err != nil {
		return nil, err
	}

	s := &inproc{specs: genSpecs(e.seed, 2), want: make(map[string]digest),
		op: campaignOp(e.size.campaignScale, shards)}
	if shards > 1 {
		// campaign_kn must render what campaign_k1 renders: the single
		// engine is the reference for every spec.
		k1 := campaignOp(e.size.campaignScale, 1)
		for _, spec := range s.specs {
			ref := k1(spec, span{})
			if ref.err != "" {
				return nil, fmt.Errorf("K=1 reference for %s: %s", spec.key(), ref.err)
			}
			s.want[spec.key()] = ref.hash
		}
	}
	return s, s.warmUp()
}

// traceOp is one op of trace_kn: build a world and run both arms of the
// Doubletree experiment over its whole hitlist.
func traceOp(scale float64, shards int) func(opSpec, span) opResult {
	return func(spec opSpec, root span) opResult {
		t0 := time.Now()
		res := opResult{spec: spec}
		cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
		cfg.Seed = spec.world
		sp := root.child("study.New")
		s, err := study.New(cfg, study.Options{Rate: 200, ShuffleSeed: spec.shuffle, Shards: shards})
		sp.end()
		if err != nil {
			res.err = err.Error()
			return res
		}
		sp = root.child("study.RunDoubletree")
		dt := s.RunDoubletree(0, 0)
		sp.end()
		res.first = time.Since(t0)
		h := sha256.New()
		sp = root.child("study.Render")
		dt.Render(h)
		sp.end()
		stopClock(&res, root, t0)
		h.Sum(res.hash[:0])
		res.err = shardErr(s)
		res.work = simProbes(s)
		root.count("sim_probes", res.work)
		root.count("probes_saved", int64(dt.Naive.Probes-dt.DT.Probes))
		return res
	}
}

func traceSetup(e *env) (session, error) {
	g, err := goldenStudy(e.shards)
	if err != nil {
		return nil, err
	}
	var render bytes.Buffer
	g.RunDoubletree(120, 3).Render(&render)
	if err := checkGolden(e, "doubletree_traceroute", render.Bytes()); err != nil {
		return nil, err
	}
	s := &inproc{specs: genSpecs(e.seed, 2), want: make(map[string]digest),
		op: traceOp(e.size.traceScale, e.shards)}
	return s, s.warmUp()
}

// planeOp is one op of plane_large: build a plane, freeze it, and stamp
// out one replica per shard — what a cold `-scale large` run and every
// plane-cache miss of the daemon pay before the first probe.
func planeOp(profile topology.ScaleProfile, clones int) func(opSpec, span) opResult {
	return func(spec opSpec, root span) opResult {
		t0 := time.Now()
		res := opResult{spec: spec}
		cfg, err := topology.ProfileConfig(topology.Epoch2016, profile)
		if err != nil {
			res.err = err.Error()
			return res
		}
		cfg.Seed = spec.world
		sp := root.child("topology.Build")
		topo, err := topology.Build(cfg)
		sp.end()
		if err != nil {
			res.err = err.Error()
			return res
		}
		sp = root.child("topology.SnapshotOf")
		snap := topology.SnapshotOf(topo)
		sp.end()
		res.first = time.Since(t0)
		replicas := make([]*topology.Topology, clones)
		for i := range replicas {
			sp = root.child("topology.Clone")
			replicas[i] = snap.Clone()
			sp.end()
		}
		stopClock(&res, root, t0)
		// A replica must carry the plane it was cloned from.
		res.hash = planeDigest(topo)
		for i, r := range replicas {
			if planeDigest(r) != res.hash {
				res.err = fmt.Sprintf("replica %d differs from its source plane", i)
			}
		}
		res.work = int64(len(topo.Dests))
		root.count("prefixes", res.work)
		return res
	}
}

// planeDigest hashes what a campaign addresses a plane by: every
// destination and vantage point, and the router count of every AS.
func planeDigest(t *topology.Topology) (d digest) {
	h := sha256.New()
	for _, dst := range t.Dests {
		fmt.Fprintln(h, dst.Addr, dst.Prefix)
	}
	for _, vps := range [][]*topology.VP{t.VPs, t.CloudVPs} {
		for _, vp := range vps {
			fmt.Fprintln(h, vp.Name, vp.Addr)
		}
	}
	for _, rs := range t.Routers {
		fmt.Fprintln(h, len(rs))
	}
	h.Sum(d[:0])
	return d
}

func planeSetup(e *env) (session, error) {
	s := &inproc{specs: genSpecs(e.seed, 1), want: make(map[string]digest),
		op: planeOp(e.size.plane, e.shards)}
	return s, s.warmUp()
}
