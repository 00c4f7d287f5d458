package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/results"
	"recordroute/internal/topology"
	"recordroute/internal/trace"
)

func testConfig() topology.Config {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.2)
	cfg.Seed = 11
	return cfg
}

// testFleet builds cfg's topology and returns the k-replica executor
// over its platform roster — at k=1 one replica inline on the build's
// own engine, above that clones of it.
func testFleet(t *testing.T, cfg topology.Config, k int) *ParallelCampaign {
	t.Helper()
	topo, err := topology.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewFleet(NewCampaign(topo, topo.VPs), NewCampaign(topo, topo.CloudVPs), k)
}

func comparePerVP(t *testing.T, label string, seq, par map[string][]probe.Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d VPs sequential vs %d parallel", label, len(seq), len(par))
	}
	for vp, srs := range seq {
		prs, ok := par[vp]
		if !ok {
			t.Errorf("%s: VP %s missing from parallel results", label, vp)
			continue
		}
		if len(srs) != len(prs) {
			t.Errorf("%s: VP %s has %d sequential vs %d parallel results", label, vp, len(srs), len(prs))
			continue
		}
		for i := range srs {
			if !reflect.DeepEqual(srs[i], prs[i]) {
				t.Errorf("%s: VP %s result %d differs:\nsequential: %+v\nparallel:   %+v",
					label, vp, i, srs[i], prs[i])
				break
			}
		}
	}
}

// wire is the comparison form of result batches: each result in its
// wire encoding, one per line, a blank line closing each batch.
func wire(batches ...[]probe.Result) []byte {
	var b []byte
	for _, rs := range batches {
		for i := range rs {
			b = append(results.AppendWireFields(append(b, '{'), &rs[i]), "}\n"...)
		}
		b = append(b, '\n')
	}
	return b
}

// wireMap encodes a primitive's per-VP results with enc.
func wireMap[T any](m map[string]T, enc func(T) []byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for vp, v := range m {
		out[vp] = enc(v)
	}
	return out
}

// jsonOf encodes what has no wire form (traces) as JSON.
func jsonOf(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fleetCase is one row of the executor contract: run drives a primitive
// through a fleet, ref starts the same probes on one engine through
// VantagePoint calls on its platform and cloud VPs (drain runs that
// engine to quiescence); both return per-VP encodings.
type fleetCase struct {
	name string
	run  func(pc *ParallelCampaign) map[string][]byte
	ref  func(vps, clouds []*VantagePoint, drain func()) map[string][]byte
}

// fleetCases builds the table over one world's destinations and
// platform and cloud VPs: every collect-all primitive, Figure 4's
// one-engine placement, the cloud roster's traceroute, the
// destination-sharded origin phase as Table 1 and as alias resolution
// run it, and two Doubletree waves.
func fleetCases(world *topology.Topology) []fleetCase {
	var dests, crowd []netip.Addr
	for _, d := range world.Dests[:40] {
		dests = append(dests, d.Addr)
	}
	// Destinations behind an edge options policer on the first VP's
	// path, each four times: at the burst rate every VP's probes drain
	// one bucket, so only one engine reproduces which of them pass.
	for _, d := range world.Dests {
		for _, hop := range world.ForwardStampPath(world.VPs[0].Addr, d.Addr) {
			if r := world.RouterByAddr(hop); r != nil && r.Behavior().OptionsRateLimit == world.Cfg.EdgeRateLimitPPS {
				crowd = append(crowd, d.Addr, d.Addr, d.Addr, d.Addr)
				break
			}
		}
	}
	var names, cloudNames []string
	for _, v := range world.VPs {
		names = append(names, v.Name)
	}
	for _, v := range world.CloudVPs {
		cloudNames = append(cloudNames, v.Name)
	}
	opts := probe.Options{Rate: 100}
	rotate := func(vp string, ds []netip.Addr) []netip.Addr {
		out := append([]netip.Addr(nil), ds...)
		rot := len(vp) % len(out)
		return append(out[rot:], out[:rot]...)
	}
	perVP, ttls := make(map[string][]netip.Addr), make(map[string][]uint8)
	for i, name := range names {
		lo := 3 * i % len(dests)
		perVP[name] = dests[lo:min(lo+5, len(dests))]
		for j := range perVP[name] {
			ttls[name] = append(ttls[name], uint8(2+(i+j)%12))
		}
	}
	traced := map[string][]netip.Addr{names[0]: dests[:3], names[len(names)-1]: dests[3:6]}
	cloudTraced := make(map[string][]netip.Addr)
	for i, name := range cloudNames {
		cloudTraced[name] = dests[i : i+3]
	}
	burst := probe.Options{Rate: 1000}
	specs := make(map[string][][]probe.Spec)
	for name, ds := range perVP {
		var rr, lsrr []probe.Spec
		for _, d := range ds {
			rr = append(rr, probe.Spec{Dst: d, Kind: probe.PingRR})
			lsrr = append(lsrr, probe.Spec{Dst: d, Kind: probe.PingLSRR, Via: []netip.Addr{dests[0]}})
		}
		specs[name] = [][]probe.Spec{rr, lsrr}
	}
	tropts := probe.Options{Rate: 50}
	traces := func(ts []trace.Result) []byte { return jsonOf(ts) }
	origin, series := names[1], dests[:24]
	waves := make([]map[string][]netip.Addr, 2)
	for i, name := range names {
		if waves[i%2] == nil {
			waves[i%2] = make(map[string][]netip.Addr)
		}
		waves[i%2][name] = rotate(name, dests[:20])
	}
	encodeRounds := func(out map[string][]byte, rounds map[string]*trace.VPRound) {
		for vp, r := range rounds {
			out[vp] = append(jsonOf(r.Traces), jsonOf(r.Stats)...)
		}
	}
	encodeGlobal := func(out map[string][]byte, sess *trace.Session) map[string][]byte {
		data, err := sess.Global.MarshalBinary()
		if err != nil {
			panic(err)
		}
		out["#global"] = data
		return out
	}
	flat := func(rs []probe.Result) []byte { return wire(rs) }
	// each starts one batch per VP on one engine, filing its encoding.
	each := func(vps []*VantagePoint, drain func(), start func(vp *VantagePoint, done func([]byte))) map[string][]byte {
		out := make(map[string][]byte)
		for _, vp := range vps {
			start(vp, func(b []byte) { out[vp.Name] = b })
		}
		drain()
		return out
	}
	return []fleetCase{
		{"ping-rr-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.PingRRAll(dests, opts, rotate), flat)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					vp.Batch(rotate(vp.Name, dests), probe.PingRR, opts, func(rs []probe.Result) { done(wire(rs)) })
				})
			}},
		{"ping-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.PingAll(dests[:10], 2, opts), func(gs [][]probe.Result) []byte { return wire(gs...) })
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					vp.PingBatch(dests[:10], 0, 10, 2, opts, func(gs [][]probe.Result) { done(wire(gs...)) })
				})
			}},
		{"ping-rr-udp-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.PingRRUDPAll(perVP, opts), flat)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					vp.Batch(perVP[vp.Name], probe.PingRRUDP, opts, func(rs []probe.Result) { done(wire(rs)) })
				})
			}},
		{"ttl-ping-rr-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.TTLPingRRAll(perVP, ttls, opts), flat)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					vp.TTLPingRRBatch(perVP[vp.Name], ttls[vp.Name], opts, func(rs []probe.Result) { done(wire(rs)) })
				})
			}},
		{"traceroute-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.TracerouteAll(traced, tropts), traces)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					if ds := traced[vp.Name]; len(ds) > 0 {
						trace.Each(vp.Name, vp.Prober, ds, tropts.Rate, trace.Options{}, func(ts []trace.Result) { done(traces(ts)) })
					}
				})
			}},
		{"ping-rr-one-engine",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.PingRROneEngine(crowd, burst, nil), flat)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					vp.Batch(crowd, probe.PingRR, burst, func(rs []probe.Result) { done(wire(rs)) })
				})
			}},
		{"cloud-traceroute-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.CloudTracerouteAll(cloudTraced, tropts), traces)
			},
			func(_, clouds []*VantagePoint, drain func()) map[string][]byte {
				return each(clouds, drain, func(vp *VantagePoint, done func([]byte)) {
					trace.Each(vp.Name, vp.Prober, cloudTraced[vp.Name], tropts.Rate, trace.Options{}, func(ts []trace.Result) { done(traces(ts)) })
				})
			}},
		{"spec-batches-all",
			func(pc *ParallelCampaign) map[string][]byte {
				return wireMap(pc.SpecBatchesAll(specs, opts), func(gs [][]probe.Result) []byte { return wire(gs...) })
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps, drain, func(vp *VantagePoint, done func([]byte)) {
					gs, left := make([][]probe.Result, 2), 2
					for i, batch := range specs[vp.Name] {
						vp.Prober.StartBatch(batch, opts, func(rs []probe.Result) {
							if gs[i], left = rs, left-1; left == 0 {
								done(wire(gs...))
							}
						})
					}
				})
			}},
		{"ping-batch-vp",
			func(pc *ParallelCampaign) map[string][]byte {
				return map[string][]byte{origin: wire(pc.PingBatchVP(origin, dests, 3, opts)...)}
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps[1:2], drain, func(vp *VantagePoint, done func([]byte)) {
					vp.PingBatch(dests, 0, len(dests), 3, opts, func(gs [][]probe.Result) { done(wire(gs...)) })
				})
			}},
		// The alias phase's IP-ID sampling: five interleaved rounds over
		// its candidates, a different split of the list at every K.
		{"ping-series-vp",
			func(pc *ParallelCampaign) map[string][]byte {
				return map[string][]byte{origin: wire(pc.PingBatchVP(origin, series, 5, opts)...)}
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				return each(vps[1:2], drain, func(vp *VantagePoint, done func([]byte)) {
					vp.PingBatch(series, 0, len(series), 5, opts, func(gs [][]probe.Result) { done(wire(gs...)) })
				})
			}},
		{"doubletree-all",
			func(pc *ParallelCampaign) map[string][]byte {
				out := make(map[string][]byte)
				sess := trace.NewSession(nil)
				for _, wave := range waves {
					encodeRounds(out, pc.DoubletreeAll(wave, sess, trace.Options{}))
				}
				return encodeGlobal(out, sess)
			},
			func(vps, _ []*VantagePoint, drain func()) map[string][]byte {
				out := make(map[string][]byte)
				sess := trace.NewSession(nil)
				for w, wave := range waves {
					// Each wave is a phase of its own, so its probers
					// start where the fleet rebases them.
					rounds := make(map[string]*trace.VPRound)
					for _, vp := range vps {
						vp.Prober.Rebase(uint16(w) * seqStride)
					}
					for _, vp := range vps {
						if ds := wave[vp.Name]; len(ds) > 0 {
							name := vp.Name
							trace.Run(name, vp.Prober, sess.State(name), sess.Global, sess.PrefixOf, ds, trace.Options{},
								func(r *trace.VPRound) { rounds[name] = r })
						}
					}
					drain()
					// A wave's deltas join the global set only once every
					// VP of the wave has finished tracing.
					for _, r := range rounds {
						sess.Merge(r.Delta)
					}
					encodeRounds(out, rounds)
				}
				return encodeGlobal(out, sess)
			}},
	}
}

// injected counts the probes an engine's hosts sent.
func injected(n *netsim.Network) uint64 { return n.CounterMap()["host.inject"] }

// TestParallelCampaignMatchesSequential is the executor's contract,
// table-driven: every primitive, run through a fleet of K = 1 (inline),
// 2 and 4 replicas with and without a fault plan, returns per VP the
// bytes one engine produces from the same VantagePoint calls — and sends
// exactly as many probes and leaves every replica clock where that
// engine's stopped. The merged
// Doubletree stop set must match too, which holds only if each wave's
// deltas are merged after the wave ends. Journaled, each primitive's
// run is restored from its journal by a fresh fleet without a probe
// sent to the same bytes, and resumed from its journal cut after the
// first batch to the same bytes again.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25, OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	for _, f := range faults {
		cfg := testConfig()
		cfg.Faults = f.fc
		world, err := topology.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range fleetCases(world) {
			// The reference: one engine, the rosters' prober IDs.
			ref, err := topology.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := ref.Net.Engine()
			var vps, clouds []*VantagePoint
			for i, v := range ref.VPs {
				vps = append(vps, NewVantagePoint(v.Name, v.Host, eng, uint16(0x4000+i)))
			}
			for i, v := range ref.CloudVPs {
				clouds = append(clouds, NewVantagePoint(v.Name, v.Host, eng, uint16(0x4000+i)))
			}
			want := c.ref(vps, clouds, eng.Run)
			for _, k := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/K=%d", f.name, c.name, k), func(t *testing.T) {
					pc := testFleet(t, cfg, k)
					pc.Observe(&obs.Observer{PerNode: true, Trace: obs.NewTrace(64, obs.Filter{})})
					got := c.run(pc)
					if len(got) != len(want) {
						t.Errorf("%d VPs returned, want %d", len(got), len(want))
					}
					for vp, w := range want {
						if g := got[vp]; !bytes.Equal(g, w) {
							i := 0
							for i < len(g) && i < len(w) && g[i] == w[i] {
								i++
							}
							t.Errorf("VP %s differs from one engine at byte %d:\n got: %.160q\nwant: %.160q", vp, i, g[i:], w[i:])
						}
					}
					var sent uint64
					for _, rep := range pc.replicas {
						sent += injected(rep.Net)
						if rep.Eng.Now() != eng.Now() {
							t.Errorf("replica %d clock %v, one engine's %v", rep.idx, rep.Eng.Now(), eng.Now())
						}
					}
					if sent != injected(ref.Net) {
						t.Errorf("fleet sent %d probes, one engine %d", sent, injected(ref.Net))
					}
					// The fleet captures the replicas it cloned; an inline
					// replica is its roster's owner's.
					want := k
					if k == 1 {
						want = 0
					}
					if got := len(pc.Metrics("m").Shards); got != want {
						t.Errorf("Metrics captured %d replicas at K=%d, want %d", got, k, want)
					}

					dir := t.TempDir()
					journaled := func(path string, open func(string, JournalMeta) (*Journal, error)) (map[string][]byte, int, uint64) {
						meta := testMeta()
						meta.Shards = k
						j, err := open(path, meta)
						if err != nil {
							t.Fatal(err)
						}
						defer j.Close()
						pc := testFleet(t, cfg, k)
						pc.AttachJournal(j)
						out := c.run(pc)
						var sent uint64
						for _, rep := range pc.replicas {
							sent += injected(rep.Net)
						}
						return out, j.Archived(), sent
					}
					path, cut := filepath.Join(dir, "j.jsonl"), filepath.Join(dir, "cut.jsonl")
					fresh, _, _ := journaled(path, CreateJournal)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					restored, archived, sent := journaled(path, ResumeJournal)
					if !maps.EqualFunc(restored, fresh, bytes.Equal) {
						t.Error("restored from its journal, the primitive returns other results")
					}
					if archived == 0 || sent > 0 {
						t.Errorf("restored from %d archived batches, the fleet sent %d probes; want some batches and no probe", archived, sent)
					}

					// Killed after its first batch was journaled, the run
					// resumes to the same results and journals each batch
					// once.
					first := bytes.Index(data, []byte(`{"t":"vp"`))
					if first < 0 {
						return
					}
					if err := os.WriteFile(cut, data[:first+bytes.IndexByte(data[first:], '\n')+1], 0o644); err != nil {
						t.Fatal(err)
					}
					if resumed, _, _ := journaled(cut, ResumeJournal); !maps.EqualFunc(resumed, fresh, bytes.Equal) {
						t.Error("resumed from a journal cut after its first batch, the primitive returns other results")
					}
					_, whole, err := ReadJournal(path)
					if err != nil {
						t.Fatal(err)
					}
					if _, again, err := ReadJournal(cut); err != nil || len(again) != len(whole) {
						t.Errorf("the resumed journal holds %d batches (%v), the uninterrupted one %d", len(again), err, len(whole))
					}
				})
			}
		}
	}
}

// TestDoubletreeJournalCutResumes cuts a journaled campaign — an origin
// phase, then two Doubletree waves — at every record boundary and
// resumes each cut into a fresh fleet: every resume must reconverge on
// the uninterrupted run's origin results and final stop set (a resumed
// wave replays its archived traces through trace.Rebuild, and each
// sealed wave's stop set is re-verified against the journal).
func TestDoubletreeJournalCutResumes(t *testing.T) {
	cfg := testConfig()
	meta := testMeta()
	meta.Shards = 2
	dir := t.TempDir()
	opts := probe.Options{Rate: 100}
	run := func(path string, resume bool) (origin, stopSet []byte, archived int) {
		t.Helper()
		pc := testFleet(t, cfg, meta.Shards)
		var j *Journal
		var err error
		if resume {
			j, err = ResumeJournal(path, meta)
		} else {
			j, err = CreateJournal(path, meta)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		pc.AttachJournal(j)
		names := pc.VPNames()
		var dests []netip.Addr
		for _, d := range pc.replicas[0].topo.Dests[:16] {
			dests = append(dests, d.Addr)
		}
		origin = wire(pc.PingBatchVP(names[1], dests, 2, opts)...)
		sess := trace.NewSession(nil)
		for w := 0; w < 2; w++ {
			wave := make(map[string][]netip.Addr)
			for i, name := range names {
				if i%2 == w {
					wave[name] = dests
				}
			}
			pc.DoubletreeAll(wave, sess, trace.Options{})
		}
		stopSet, err = sess.Global.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return origin, stopSet, j.Archived()
	}
	full := filepath.Join(dir, "full.jsonl")
	wantOrigin, wantStops, _ := run(full, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut := filepath.Join(dir, "cut.jsonl")
	for n := 1; n < len(lines); n++ {
		prefix := bytes.Join(lines[:n], nil)
		if err := os.WriteFile(cut, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		origin, stops, archived := run(cut, true)
		if !bytes.Equal(origin, wantOrigin) {
			t.Errorf("cut after %d records: origin results differ from the uninterrupted run", n)
		}
		if !bytes.Equal(stops, wantStops) {
			t.Errorf("cut after %d records: stop set of %d bytes, uninterrupted %d", n, len(stops), len(wantStops))
		}
		if want := bytes.Count(prefix, []byte(`"t":"vp"`)); archived != want {
			t.Errorf("cut after %d records: %d batches archived, want %d", n, archived, want)
		}
	}
}

// TestDoubletreeWaveUsesEveryReplica runs a Doubletree round over two
// VPs that share home replica 0 at K = 2: dealt over the replicas, the
// round injects probes on both, and returns K = 1's bytes.
func TestDoubletreeWaveUsesEveryReplica(t *testing.T) {
	round := func(k int) ([]byte, []uint64) {
		pc := testFleet(t, testConfig(), k)
		names := pc.VPNames()
		var dests []netip.Addr
		for _, d := range pc.replicas[0].topo.Dests[:16] {
			dests = append(dests, d.Addr)
		}
		sess := trace.NewSession(nil)
		rounds := pc.DoubletreeAll(map[string][]netip.Addr{names[0]: dests, names[2]: dests}, sess, trace.Options{})
		out := jsonOf([]*trace.VPRound{rounds[names[0]], rounds[names[2]]})
		global, err := sess.Global.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var sent []uint64
		for _, rep := range pc.replicas {
			sent = append(sent, injected(rep.Net))
		}
		return append(out, global...), sent
	}
	want, _ := round(1)
	got, sent := round(2)
	if slices.Contains(sent, 0) {
		t.Errorf("probes injected per replica %v: a replica sat the round out", sent)
	}
	if !bytes.Equal(got, want) {
		t.Error("dealt over two replicas, the round differs from one engine's")
	}
}

// TestParallelCampaignShardFailureAborts is the fail-fast contract, at
// K=1 inline and at K=3: a replica that panics mid-primitive makes the
// primitive panic on the caller's goroutine with a ShardError naming it
// and the VPs the phase placed on it, after the other replicas finished — their batches are
// journaled — and every later primitive raises the same failure again.
func TestParallelCampaignShardFailureAborts(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			par := testFleet(t, testConfig(), k)
			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, err := CreateJournal(path, testMeta())
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			par.AttachJournal(j)
			names := par.VPNames() // forces replica build
			dests := make([]netip.Addr, 0, 10)
			for _, d := range par.replicas[0].topo.Dests[:10] {
				dests = append(dests, d.Addr)
			}

			// Kill replica 1 (at K=1 the one replica) mid-primitive: the
			// injected event panics while its engine drains, before any
			// batch completes.
			victim := min(1, k-1)
			par.replicas[victim].Eng.Schedule(0, func() { panic("injected shard fault") })
			var dead, survivors []string
			for i, n := range names {
				if i%k == victim {
					dead = append(dead, n)
				} else {
					survivors = append(survivors, n)
				}
			}

			opts := probe.Options{Rate: 100}
			raised := func(primitive func()) (se ShardError) {
				t.Helper()
				defer func() {
					r := recover()
					var ok bool
					if se, ok = r.(ShardError); !ok {
						t.Fatalf("primitive raised %v, want a ShardError", r)
					}
				}()
				primitive()
				return
			}
			se := raised(func() { par.PingRRAll(dests, opts, nil) })
			if se.Shard != victim || !slices.Equal(se.VPs, dead) || !strings.Contains(fmt.Sprint(se.Err), "injected shard fault") {
				t.Errorf("raised shard %d VPs %v err %v, want shard %d VPs %v and the injected fault", se.Shard, se.VPs, se.Err, victim, dead)
			}
			if got := par.ShardErrors(); len(got) != 1 || got[0].Shard != victim {
				t.Errorf("ShardErrors = %v, want the raised failure", got)
			}

			// The survivors finished the primitive: each journaled its batch.
			_, batches, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			var journaled []string
			for _, b := range batches {
				if len(b.Results) != len(dests) {
					t.Errorf("journaled %s: %d results, want %d", b.Key, len(b.Results), len(dests))
				}
				journaled = append(journaled, b.Key)
			}
			slices.Sort(journaled)
			slices.Sort(survivors)
			if !slices.Equal(journaled, survivors) {
				t.Errorf("journaled batches %v, want the survivors' %v", journaled, survivors)
			}

			// A later primitive refuses with the same failure.
			if again := raised(func() { par.PingAll(dests[:3], 1, opts) }); again.Shard != se.Shard || again.Err != se.Err {
				t.Errorf("later primitive raised %v, want the first failure again", again)
			}

			// A pooled phase runs every VP on replica 0, so its failure
			// there names them all.
			pooled := testFleet(t, testConfig(), k)
			pooled.init()
			pooled.replicas[0].Eng.Schedule(0, func() { panic("injected shard fault") })
			if se := raised(func() { pooled.PingRROneEngine(dests, opts, nil) }); se.Shard != 0 || !slices.Equal(se.VPs, names) {
				t.Errorf("pooled phase raised shard %d VPs %v, want shard 0 VPs %v", se.Shard, se.VPs, names)
			}
		})
	}
}

// TestParallelCampaignShardClamp checks that absurd shard counts clamp
// to the VP population in the constructor — NumShards is right before
// any replica exists — instead of building empty replicas.
func TestParallelCampaignShardClamp(t *testing.T) {
	topo, err := topology.Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	from, err := NewParallelCampaignFrom(topo, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []*ParallelCampaign{from, NewFleet(NewCampaign(topo, topo.VPs), NewCampaign(topo, nil), 10000)} {
		if got := par.NumShards(); got != len(topo.VPs) {
			t.Errorf("NumShards before init = %d, want clamp to %d VPs", got, len(topo.VPs))
		}
		names := par.VPNames()
		if got := len(par.replicas); got != len(names) {
			t.Errorf("%d replicas built, want clamp to %d VPs", got, len(names))
		}
		if par.VP(names[0]) == nil {
			t.Errorf("VP(%q) = nil after clamp", names[0])
		}
	}
	if _, err := NewParallelCampaignFrom(topo, 0); err == nil {
		t.Error("zero shards accepted")
	}
}
