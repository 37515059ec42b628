package tara

import (
	"fmt"

	"tara/internal/eps"
)

// n-dimensional exploration (Definition 9 beyond the two evaluated
// parameters): the framework can materialize per-window slices of the
// (support × confidence × lift) space from the archive and answer
// stable-region requests over all three measures (/recommend lift=). ND
// slices are built lazily from archived counts and cached; they add nothing
// to the offline phase unless used.

// ndSlice returns the cached n-dimensional slice for window w, building it
// on first use. Callers hold f.mu for reading; ndMu is acquired inside, and
// no writer ever takes ndMu, so the lock order is acyclic.
func (f *Framework) ndSlice(w int) (*eps.SliceND, error) {
	if w < 0 || w >= len(f.windows) {
		return nil, fmt.Errorf("tara: window %d out of range [0,%d)", w, len(f.windows))
	}
	f.ndMu.Lock()
	defer f.ndMu.Unlock()
	if s, ok := f.ndSlices[w]; ok {
		return s, nil
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	var ids []eps.IDStats
	for _, l := range slice.Locations() {
		for _, id := range l.Rules {
			st, ok := f.arch.StatsAt(id, w)
			if !ok {
				return nil, fmt.Errorf("tara: rule %d missing from archive in window %d", id, w)
			}
			ids = append(ids, eps.IDStats{ID: id, Stats: st})
		}
	}
	s, err := eps.BuildSliceND(w, f.windows[w].N, ids, eps.StandardMeasures())
	if err != nil {
		return nil, err
	}
	if f.ndSlices == nil {
		f.ndSlices = map[int]*eps.SliceND{}
	}
	f.ndSlices[w] = s
	return s, nil
}

// RecommendND returns the three-measure stable region around the request:
// how far each of minsupp, minconf and minlift can move without changing
// the answer.
func (f *Framework) RecommendND(w int, minSupp, minConf, minLift float64) (eps.RegionND, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return eps.RegionND{}, err
	}
	s, err := f.ndSlice(w)
	if err != nil {
		return eps.RegionND{}, err
	}
	return s.Region([]float64{minSupp, minConf, minLift})
}
