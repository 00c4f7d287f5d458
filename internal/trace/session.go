package trace

import "net/netip"

// ttlHistSize bounds the destination-distance histogram; distances at
// or beyond it share the last bucket (paths that long never steer the
// midpoint anyway).
const ttlHistSize = 64

// VPState is one vantage point's persistent probing state across
// rounds: its local stop set and the destination-distance histogram
// that adapts the forward phase's starting TTL. It must only be
// touched from the VP's own engine context (or the single-threaded
// journal replay), never shared between VPs.
type VPState struct {
	Local *LocalSet

	ttlHist [ttlHistSize]int
	ttlN    int
}

// NewVPState returns fresh per-VP state.
func NewVPState() *VPState {
	return &VPState{Local: NewLocalSet()}
}

// observeDestTTL records one measured or inferred destination
// distance for midpoint adaptation.
func (st *VPState) observeDestTTL(t uint8) {
	i := int(t)
	if i >= ttlHistSize {
		i = ttlHistSize - 1
	}
	st.ttlHist[i]++
	st.ttlN++
}

// midTTL picks the forward phase's starting TTL: the median of the
// destination distances this VP has observed, or Options.FirstHop
// until five samples exist. Starting near the middle of a typical
// path is what lets both stop sets bite — the global set ahead, the
// local set behind (Doubletree §2).
func (st *VPState) midTTL(opts Options) uint8 {
	if st.ttlN < 5 {
		return opts.firstHop()
	}
	half := (st.ttlN + 1) / 2
	cum := 0
	for t, n := range st.ttlHist {
		cum += n
		if cum >= half {
			if t < 1 {
				return 1
			}
			return uint8(t)
		}
	}
	return opts.firstHop()
}

// Session owns the cross-VP probing state of a multi-round campaign:
// the shared global stop set, the per-VP states, and the
// destination-to-prefix mapping global keys are qualified by.
//
// Concurrency contract: State must be called for every participating
// VP before a round is dispatched across shards (the campaign layer
// does this), so that during the round each shard only reads the map
// and mutates its own VPs' entries. The global set is frozen during a
// round — only Merge, called between rounds on one goroutine, may
// mutate it.
type Session struct {
	Global *GlobalSet

	prefixOf func(netip.Addr) netip.Prefix
	states   map[string]*VPState
}

// NewSession starts a session with an empty global set. prefixOf maps
// a destination to the prefix its global-set entries are keyed by;
// nil falls back to the destination's /24.
func NewSession(prefixOf func(netip.Addr) netip.Prefix) *Session {
	return &Session{
		Global:   NewGlobalSet(),
		prefixOf: prefixOf,
		states:   make(map[string]*VPState),
	}
}

// PrefixOf resolves a destination's stop-set prefix.
func (s *Session) PrefixOf(a netip.Addr) netip.Prefix {
	if s.prefixOf != nil {
		if p := s.prefixOf(a); p.IsValid() {
			return p.Masked()
		}
	}
	p, err := a.Prefix(24)
	if err != nil {
		return netip.PrefixFrom(a, a.BitLen())
	}
	return p
}

// State returns the named VP's state, creating it on first use. Not
// safe for concurrent creation — see the Session concurrency contract.
func (s *Session) State(vp string) *VPState {
	st, ok := s.states[vp]
	if !ok {
		st = NewVPState()
		s.states[vp] = st
	}
	return st
}

// Merge unions a round's per-VP deltas into the global set. Min-merge
// union is order-independent, so the caller may pass deltas in any
// order and still converge on the same set (DESIGN.md §14).
func (s *Session) Merge(deltas ...*GlobalSet) {
	for _, d := range deltas {
		s.Global.Union(d)
	}
}
