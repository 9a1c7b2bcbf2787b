package features

import (
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Labeling is one (R, E) configuration of a p-sequence together with
// its run index: the label-dependent statistics the fes and fss
// segmentation cliques read, kept in step with every label write.
//
// The index holds, as int32:
//
//   - the region-run and event-run extents of every record,
//   - a prefix count of event changes that restarts at every region
//     run, so the changes inside any stretch of one region run are a
//     difference of two entries,
//   - for each event run [s, t], its distinct regions in order of first
//     occurrence, each with its first and last occurrence, stored in
//     the run's own slots [s, s+D).
//
// Reset, SetRegion, SetBlock and SetEvent are the only ways to write a
// label; each move re-indexes only the runs it touches, at O(run) cost.
// Regions and Events expose the labels read-only. The zero Labeling is
// empty and ready for Reset.
type Labeling struct {
	r []indoor.RegionID
	e []seq.Event

	// rrun and erun encode the region and event runs: for a run [s, t],
	// the start s holds t and every later record holds s. An entry
	// below its own index is therefore a start, any other entry an end.
	rrun, erun []int32
	// chg[x] counts E[y] ≠ E[y+1] from the start of x's region run up
	// to x.
	chg []int32
	// dn[s] is the distinct-region count D of the event run starting at
	// s; dist[s:s+D] lists them. Both are meaningful at run starts only.
	dn   []int32
	dist []occurrence

	// seen is scratch for distinct counts spanning several event runs.
	seen []int32

	// srcR/srcE identify the caller's slices the labels were last Reset
	// from; a setter call clears them (see SeqContext.labels).
	srcR *indoor.RegionID
	srcE *seq.Event
}

// occurrence is one distinct region of an event run with the first and
// last record carrying it.
type occurrence struct {
	reg, first, last int32
}

// Len returns the number of labeled records.
func (l *Labeling) Len() int { return len(l.r) }

// Regions returns the region labels. The slice is the Labeling's own
// storage: read it, never write it.
func (l *Labeling) Regions() []indoor.RegionID { return l.r }

// Events returns the event labels, read-only like Regions.
func (l *Labeling) Events() []seq.Event { return l.e }

// RegionRun returns the maximal same-region run [a, b] containing i.
func (l *Labeling) RegionRun(i int) (a, b int) { return runOf(l.rrun, i) }

// EventRun returns the maximal same-event run [a, b] containing i.
func (l *Labeling) EventRun(i int) (a, b int) { return runOf(l.erun, i) }

// runOf decodes the run containing i from a run array.
func runOf(run []int32, i int) (a, b int) {
	a = i
	if s := int(run[i]); s < i {
		a = s
	}
	return a, int(run[a])
}

// setRun encodes the run [s, t] into a run array.
func setRun(run []int32, s, t int) {
	run[s] = int32(t)
	for x := s + 1; x <= t; x++ {
		run[x] = int32(s)
	}
}

// Reset copies R and E in and indexes them from scratch, reusing the
// Labeling's buffers.
func (l *Labeling) Reset(R []indoor.RegionID, E []seq.Event) {
	n := len(R)
	l.r = append(l.r[:0], R...)
	l.e = append(l.e[:0], E...)
	l.rrun, l.erun = growSlice(l.rrun, n), growSlice(l.erun, n)
	l.chg = growSlice(l.chg, n)
	l.dn = growSlice(l.dn, n)
	l.dist = growSlice(l.dist, n)
	l.srcR, l.srcE = nil, nil
	if n == 0 {
		return
	}
	l.indexRegionRuns(0, n-1)
	l.indexEventRuns(0, n-1)
	l.srcR, l.srcE = &R[0], &E[0]
}

// clear empties the labeling without releasing its buffers.
func (l *Labeling) clear() {
	l.r, l.e = l.r[:0], l.e[:0]
	l.srcR, l.srcE = nil, nil
}

// names reports whether R and E are the labels the index describes:
// the Labeling's own slices, or the slices it was last Reset from with
// no setter call since.
func (l *Labeling) names(R []indoor.RegionID, E []seq.Event) bool {
	if len(R) != len(l.r) || len(E) != len(l.e) || len(R) == 0 {
		return false
	}
	return (&R[0] == &l.r[0] && &E[0] == &l.e[0]) || (&R[0] == l.srcR && &E[0] == l.srcE)
}

// SetRegion writes R[i] = r.
func (l *Labeling) SetRegion(i int, r indoor.RegionID) { l.SetBlock(i, i, r) }

// SetBlock writes R[x] = r for a ≤ x ≤ b. It re-indexes the region runs
// the block touches before and after the write, and the distinct
// regions of the event runs it overlaps.
func (l *Labeling) SetBlock(a, b int, r indoor.RegionID) {
	n := len(l.r)
	// Every run whose extent changes lies in the old runs around the
	// block or in the new runs it joins; lo and hi are run boundaries
	// under both labelings.
	lo, _ := l.RegionRun(a)
	_, hi := l.RegionRun(b)
	for x := a; x <= b; x++ {
		l.r[x] = r
	}
	if a > 0 && l.r[a-1] == r {
		s, _ := l.RegionRun(a - 1)
		lo = min(lo, s)
	}
	if b+1 < n && l.r[b+1] == r {
		_, t := l.RegionRun(b + 1)
		hi = max(hi, t)
	}
	l.indexRegionRuns(lo, hi)
	s, _ := l.EventRun(a)
	for ; s <= b; s = int(l.erun[s]) + 1 {
		l.indexDistinct(s, int(l.erun[s]))
	}
	l.srcR, l.srcE = nil, nil
}

// SetEvent writes E[i] = e. It re-indexes the event runs around i and
// the change counts of i's region run.
func (l *Labeling) SetEvent(i int, e seq.Event) {
	n := len(l.e)
	lo, hi := l.EventRun(i)
	l.e[i] = e
	if i > 0 && l.e[i-1] == e {
		s, _ := l.EventRun(i - 1)
		lo = min(lo, s)
	}
	if i+1 < n && l.e[i+1] == e {
		_, t := l.EventRun(i + 1)
		hi = max(hi, t)
	}
	l.indexEventRuns(lo, hi)
	l.indexChanges(l.RegionRun(i))
	l.srcR, l.srcE = nil, nil
}

// indexRegionRuns rebuilds the region-run extents and change counts
// over [lo, hi], which must start and end on run boundaries.
func (l *Labeling) indexRegionRuns(lo, hi int) {
	for s := lo; s <= hi; {
		t := s
		for t < hi && l.r[t+1] == l.r[s] {
			t++
		}
		setRun(l.rrun, s, t)
		l.indexChanges(s, t)
		s = t + 1
	}
}

// indexChanges rebuilds chg over the region run [s, t].
func (l *Labeling) indexChanges(s, t int) {
	l.chg[s] = 0
	for x := s + 1; x <= t; x++ {
		l.chg[x] = l.chg[x-1]
		if l.e[x-1] != l.e[x] {
			l.chg[x]++
		}
	}
}

// indexEventRuns rebuilds the event-run extents and distinct-region
// slots over [lo, hi], which must start and end on run boundaries.
func (l *Labeling) indexEventRuns(lo, hi int) {
	for s := lo; s <= hi; {
		t := s
		for t < hi && l.e[t+1] == l.e[s] {
			t++
		}
		setRun(l.erun, s, t)
		l.indexDistinct(s, t)
		s = t + 1
	}
}

// indexDistinct rebuilds the distinct-region slots of the event run
// [s, t].
func (l *Labeling) indexDistinct(s, t int) {
	d := l.dist[s : s : t+1]
	k := 0 // slot of the previous record's region: runs repeat it
	for x := s; x <= t; x++ {
		r := int32(l.r[x])
		if len(d) == 0 || d[k].reg != r {
			k = 0
			for k < len(d) && d[k].reg != r {
				k++
			}
			if k == len(d) {
				d = append(d, occurrence{reg: r, first: int32(x)})
			}
		}
		d[k].last = int32(x)
	}
	l.dn[s] = int32(len(d))
}

// runDistinct returns the distinct regions of the event run starting at
// s.
func (l *Labeling) runDistinct(s int) []occurrence {
	return l.dist[s : s+int(l.dn[s])]
}

// distinctIn counts the distinct regions over records [x, y]. Where the
// stretch overlaps an event run only in part, the overlap must be a
// prefix or a suffix of the run, or the single record x == y, which is
// every shape the fes sub-runs of one event move take.
func (l *Labeling) distinctIn(x, y int) int {
	if x == y {
		return 1
	}
	s, t := l.EventRun(x)
	if t >= y {
		if s == x && t == y {
			return int(l.dn[s])
		}
		cnt := 0
		for _, o := range l.runDistinct(s) {
			if int(o.first) <= y && int(o.last) >= x {
				cnt++
			}
		}
		return cnt
	}
	seen := l.seen[:0]
	for ; s <= y; s = int(l.erun[s]) + 1 {
		lo, hi := max(s, x), min(int(l.erun[s]), y)
		for _, o := range l.runDistinct(s) {
			if int(o.first) <= hi && int(o.last) >= lo && !containsInt32(seen, o.reg) {
				seen = append(seen, o.reg)
			}
		}
	}
	l.seen = seen
	return len(seen)
}

func containsInt32(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
