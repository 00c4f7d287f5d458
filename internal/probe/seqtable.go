package probe

// seqTable maps the sequence numbers of attempts in flight to their
// slots in Prober.atts. It is an open-addressed table with linear
// probing, hashed by the sequence number itself: a prober hands numbers
// out consecutively, so the live ones sit in consecutive buckets, each
// in its home, and a lookup touches one cache line. Deletion shifts the
// rest of the run back over the hole instead of leaving a tombstone, so
// the table never needs cleaning however long the prober lives.
type seqTable struct {
	e []seqEntry // length zero or a power of two, at most half full
	n int
}

// seqEntry is one bucket; the zero value is an empty one.
type seqEntry struct {
	slot int32 // attempt slot + 1; 0 marks the bucket empty
	seq  uint16
}

// seqTableMin is the first allocation's bucket count.
const seqTableMin = 64

// get returns the attempt slot registered under seq, or -1.
func (t *seqTable) get(seq uint16) int32 {
	if t.n == 0 {
		return -1
	}
	mask := len(t.e) - 1
	for i := int(seq) & mask; ; i = (i + 1) & mask {
		switch e := t.e[i]; {
		case e.slot == 0:
			return -1
		case e.seq == seq:
			return e.slot - 1
		}
	}
}

// put registers slot under seq, which must not be present.
func (t *seqTable) put(seq uint16, slot int32) {
	if 2*(t.n+1) > len(t.e) {
		t.grow()
	}
	t.n++
	t.place(seqEntry{slot: slot + 1, seq: seq})
}

// place stores e in the first free bucket at or after its home.
func (t *seqTable) place(e seqEntry) {
	mask := len(t.e) - 1
	i := int(e.seq) & mask
	for t.e[i].slot != 0 {
		i = (i + 1) & mask
	}
	t.e[i] = e
}

// grow doubles the table and rehashes what it holds.
func (t *seqTable) grow() {
	old := t.e
	size := 2 * len(old)
	if size < seqTableMin {
		size = seqTableMin
	}
	t.e = make([]seqEntry, size)
	for _, e := range old {
		if e.slot != 0 {
			t.place(e)
		}
	}
}

// del removes seq, if present, by backward-shift deletion: every later
// entry of the run that the hole would cut off from its home moves back
// into it, and the hole moves on until the run ends.
func (t *seqTable) del(seq uint16) {
	if t.n == 0 {
		return
	}
	mask := len(t.e) - 1
	hole := int(seq) & mask
	for t.e[hole].seq != seq || t.e[hole].slot == 0 {
		if t.e[hole].slot == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	t.n--
	for j := (hole + 1) & mask; t.e[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may stay only if its home lies cyclically in
		// (hole, j]: a lookup walking from that home never crosses the
		// hole.
		if home := int(t.e[j].seq) & mask; (j-home)&mask < (j-hole)&mask {
			continue
		}
		t.e[hole] = t.e[j]
		hole = j
	}
	t.e[hole] = seqEntry{}
}
