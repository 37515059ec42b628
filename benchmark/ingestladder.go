package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tara/internal/archive"
	"tara/internal/eps"
	"tara/internal/kb"
	"tara/internal/mining"
	"tara/internal/rules"
	"tara/internal/tara"
	"tara/internal/txdb"
)

// climbIngest is the traced pass of the ingest workload: a flat sequence over
// the dataset, each step one span. First the build by hand, window by window,
// so that every stage has its own time; then the Framework's build as a whole;
// then each persistence step, encode and open. Each span's N is the exact
// count its step produced; a fixed seed reproduces every one of them.
func climbIngest(tsvPath, dir string, sz sizes) (*trace, error) {
	t := &trace{workload: wIngest, epoch: time.Now()}
	fail := func(err error) (*trace, error) { return nil, err }
	st0, err := os.Stat(tsvPath)
	if err != nil {
		return fail(err)
	}
	fh, err := os.Open(tsvPath)
	if err != nil {
		return fail(err)
	}
	defer fh.Close()

	st := t.now()
	db, err := txdb.Read(fh)
	if err != nil {
		return fail(err)
	}
	t.add(0, "txdb", "Read", st, st0.Size())
	st = t.now()
	ws, err := db.PartitionByCount(sz.windows)
	if err != nil {
		return fail(err)
	}
	t.add(0, "txdb", "PartitionByCount", st, int64(db.Len()))

	miner := mining.Eclat{}
	dict, arch := rules.NewDict(), archive.New()
	var slices []*eps.Slice
	for _, w := range ws {
		minCount := mining.MinCountFor(sz.genSupp, len(w.Tx))
		st = t.now()
		res, err := miner.Mine(w.Tx, mining.Params{MinCount: minCount, MaxLen: sz.maxLen})
		if err != nil {
			return fail(err)
		}
		t.add(w.Index, "mining", "Mine", st, int64(res.Len()))

		st = t.now()
		rs, err := rules.Generate(res, rules.GenParams{MinCount: minCount, MinConf: sz.genConf})
		if err != nil {
			return fail(err)
		}
		t.add(w.Index, "rules", "Generate", st, int64(len(rs)))

		st = t.now()
		ids := make([]eps.IDStats, len(rs))
		for i, r := range rs {
			ids[i] = eps.IDStats{ID: dict.Add(r.Rule), Stats: r.Stats}
		}
		t.add(w.Index, "rules", "Dict.Add", st, int64(len(rs)))

		st = t.now()
		slice, err := eps.BuildSlice(w.Index, uint32(len(w.Tx)), ids, eps.Options{ContentIndex: true, Dict: dict})
		if err != nil {
			return fail(err)
		}
		t.add(w.Index, "eps", "BuildSlice", st, int64(slice.NumLocations()))
		slices = append(slices, slice)

		st = t.now()
		recs := make([]archive.Record, len(rs))
		for i, r := range rs {
			recs[i] = archive.Record{ID: ids[i].ID, CountXY: r.CountXY, CountX: r.CountX, CountY: r.CountY}
		}
		if _, err := arch.AppendWindow(uint32(len(w.Tx)), recs); err != nil {
			return fail(err)
		}
		t.add(w.Index, "archive", "AppendWindow", st, int64(len(recs)))
	}

	// The Framework's own build: every Config field the roadmap plans to fold
	// away (Parallelism among them) keeps its zero value.
	fw := tara.New(db.Dict, tara.Config{GenMinSupport: sz.genSupp, GenMinConf: sz.genConf, MaxItemsetLen: sz.maxLen, ContentIndex: true})
	st = t.now()
	if err := fw.AppendWindows(context.Background(), ws); err != nil {
		return fail(err)
	}
	t.add(0, "tara", "AppendWindows", st, int64(runtime.GOMAXPROCS(0)))

	st = t.now()
	blob := arch.AppendMapped(nil)
	t.add(0, "archive", "AppendMapped", st, int64(len(blob)))
	st = t.now()
	if _, err := archive.OpenMapped(blob); err != nil {
		return fail(err)
	}
	t.add(0, "archive", "OpenMapped", st, int64(len(blob)))

	b := &kb.Builder{}
	b.Add(1, blob)
	for i, s := range slices {
		st = t.now()
		sb := s.AppendMapped(nil)
		t.add(i, "eps", "AppendMapped", st, int64(len(sb)))
		b.Add(kb.SectionID(2+i), sb)
	}
	blobsPath := filepath.Join(dir, "ladder-blobs.tarakb")
	out, err := os.Create(blobsPath)
	if err != nil {
		return fail(err)
	}
	st = t.now()
	n, err := b.WriteTo(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	t.add(0, "kb", "WriteTo", st, n)

	kbPath := filepath.Join(dir, "ladder.tarakb")
	if out, err = os.Create(kbPath); err != nil {
		return fail(err)
	}
	st = t.now()
	err = fw.SaveMapped(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	fi, err := os.Stat(kbPath)
	if err != nil {
		return fail(err)
	}
	t.add(0, "tara", "SaveMapped", st, fi.Size())

	st = t.now()
	kf, err := kb.Open(kbPath)
	if err != nil {
		return fail(err)
	}
	t.add(0, "kb", "Open", st, fi.Size())
	if err := kf.Close(); err != nil {
		return fail(err)
	}
	st = t.now()
	reopened, err := tara.Open(kbPath)
	if err != nil {
		return fail(err)
	}
	t.add(0, "tara", "Open", st, fi.Size())
	if got := reopened.RuleDict().Len(); got != fw.RuleDict().Len() {
		err = fmt.Errorf("reopened knowledge base has %d rules, built one %d", got, fw.RuleDict().Len())
	}
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	return t, nil
}
