package tara_bench

import (
	"fmt"
	"testing"

	"tara/internal/mining"
	"tara/internal/rules"
)

// Ablation benchmarks for the design choices called out in DESIGN.md:
// the EPS quadrant walk vs a naive linear scan over parametric locations,
// the delta-varint TAR Archive encoding vs naive fixed-width storage, and
// the choice of frequent-itemset miner inside the Association Generator.

// BenchmarkAblationEPSCollection compares the indexed quadrant walk with a
// linear scan over all locations, at a selective and an unselective request.
func BenchmarkAblationEPSCollection(b *testing.B) {
	sys := systemsFor(b, "retail")
	slice, err := sys.TARA.Index().Slice(len(sys.Windows) - 1)
	if err != nil {
		b.Fatal(err)
	}
	linearScan := func(minSupp, minConf float64) []rules.ID {
		var out []rules.ID
		for _, l := range slice.Locations() {
			if l.Supp >= minSupp && l.Conf >= minConf {
				out = append(out, l.Rules...)
			}
		}
		return out
	}
	for _, q := range []struct {
		name       string
		supp, conf float64
	}{
		{"selective", 0.05, 0.6},
		{"broad", 0.005, 0.1},
	} {
		b.Run(q.name+"/quadrant-walk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = slice.Rules(q.supp, q.conf)
			}
		})
		b.Run(q.name+"/linear-scan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = linearScan(q.supp, q.conf)
			}
		})
	}
}

// BenchmarkAblationArchiveDecode measures trajectory decoding from the
// compressed archive and reports the compression ratio against naive
// fixed-width storage — the space/time trade the encoding makes.
func BenchmarkAblationArchiveDecode(b *testing.B) {
	sys := systemsFor(b, "retail")
	arch := sys.TARA.Archive()
	ids := arch.Rules()
	b.Run("series-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = arch.Series(ids[i%len(ids)])
		}
		b.ReportMetric(float64(arch.UncompressedBytes())/float64(arch.SizeBytes()), "compression-x")
	})
	b.Run("rollup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := arch.RollUp(ids[i%len(ids)], 0, arch.Windows()-1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMinerChoice runs each frequent-itemset miner over one
// window of the retail workload at the generation threshold — the offline
// cost the Association Generator's default (Eclat) was picked by.
func BenchmarkAblationMinerChoice(b *testing.B) {
	sys := systemsFor(b, "retail")
	window := sys.Windows[len(sys.Windows)-1]
	minCount := mining.MinCountFor(sys.Spec.GenSupp, len(window.Tx))
	for _, m := range mining.Miners() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := m.Mine(window.Tx, mining.Params{MinCount: minCount, MaxLen: sys.Spec.MaxLen})
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no itemsets")
				}
			}
		})
	}
}

// BenchmarkAblationLiftPostFilter measures the three-measure (support,
// confidence, lift) request as /mine lift= answers it: the 2-D quadrant walk
// with a lift post-filter.
func BenchmarkAblationLiftPostFilter(b *testing.B) {
	sys := systemsFor(b, "retail")
	last := len(sys.Windows) - 1
	spec := sys.Spec
	for _, q := range []struct {
		name             string
		supp, conf, lift float64
	}{
		{"selective", 4 * spec.GenSupp, 0.6, 2},
		{"broad", spec.GenSupp, spec.GenConf, 1},
	} {
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.TARA.MineFiltered(last, q.supp, q.conf, q.lift); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationContentIndex compares plain collection with the TARA-S
// merged-content-index collection on the same slice, isolating the merge
// overhead the paper reports for TARA-S.
func BenchmarkAblationContentIndex(b *testing.B) {
	sys := systemsFor(b, "retail")
	slice, err := sys.TARA.Index().Slice(len(sys.Windows) - 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name       string
		supp, conf float64
	}{
		{"selective", 0.05, 0.6},
		{"broad", 0.005, 0.1},
	} {
		b.Run(fmt.Sprintf("%s/plain", q.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = slice.Rules(q.supp, q.conf)
			}
		})
		b.Run(fmt.Sprintf("%s/merged", q.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := slice.RulesMerged(q.supp, q.conf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
