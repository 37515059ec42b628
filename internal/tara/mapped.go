package tara

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tara/internal/archive"
	"tara/internal/eps"
	"tara/internal/kb"
	"tara/internal/mining"
	"tara/internal/obs"
	"tara/internal/rules"
	"tara/internal/txdb"
)

// Knowledge-base persistence: the TARAKB2 container (internal/kb) holds the
// knowledge base in a query-ready layout — the offline phase's EPS index and
// TAR Archive both — so Open serves cold lookups straight off the mapped
// file without re-deriving anything.
//
// Section contents (container framing is internal/kb's; integers are
// uvarints unless noted):
//
//	meta:     genSupp, genConf (float64 bits, little-endian, 8 bytes each),
//	          zigzag(maxLen), contentIndex (0/1), miner name (len-prefixed)
//	items:    count, then len-prefixed names in id order
//	rulekeys: count (uint32 LE), count+1 fence offsets (uint32 LE),
//	          concatenated key bytes — fences give O(1) access to any key,
//	          which is what lets the rule dictionary parse keys lazily
//	windows:  count, then per window zigzag(start), zigzag(end), N
//	archive:  the archive.AppendMapped block
//	eps:      slice count, then per window blockLen + eps.(*Slice).AppendMapped
//	          block — Open validates and aliases it rather than rebuilding
//	          the index from the archive (sorting, deduplication, postings
//	          encoding per window)
const (
	kbSecMeta     kb.SectionID = 1
	kbSecItems    kb.SectionID = 2
	kbSecRuleKeys kb.SectionID = 3
	kbSecWindows  kb.SectionID = 4
	kbSecArchive  kb.SectionID = 5
	kbSecEPS      kb.SectionID = 6
)

// SaveMapped serializes the knowledge base in the mapped (TARAKB2) container
// format. The snapshot is assembled under the read lock and written to w
// after the lock is released, so a slow destination never blocks appends.
func (f *Framework) SaveMapped(w io.Writer) error {
	b, err := f.buildContainer()
	if err != nil {
		return err
	}
	_, err = b.WriteTo(w)
	return err
}

// buildContainer encodes every section under the read lock.
func (f *Framework) buildContainer() (*kb.Builder, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()

	var meta []byte
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(f.cfg.GenMinSupport))
	meta = append(meta, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(f.cfg.GenMinConf))
	meta = append(meta, f8[:]...)
	meta = binary.AppendUvarint(meta, zigzag64(int64(f.cfg.MaxItemsetLen)))
	ci := uint64(0)
	if f.cfg.ContentIndex {
		ci = 1
	}
	meta = binary.AppendUvarint(meta, ci)
	miner := f.cfg.miner().Name()
	meta = binary.AppendUvarint(meta, uint64(len(miner)))
	meta = append(meta, miner...)

	var items []byte
	items = binary.AppendUvarint(items, uint64(f.itemDict.Len()))
	for i := 0; i < f.itemDict.Len(); i++ {
		name := f.itemDict.Name(txdb.Item(i))
		items = binary.AppendUvarint(items, uint64(len(name)))
		items = append(items, name...)
	}

	numRules := f.ruleDict.Len()
	fences := make([]uint32, 0, numRules+1)
	var blob []byte
	for i := 0; i < numRules; i++ {
		fences = append(fences, uint32(len(blob)))
		r, ok := f.ruleDict.Rule(rules.ID(i))
		if !ok {
			return nil, fmt.Errorf("tara: rule %d missing from dictionary", i)
		}
		blob = append(blob, r.Key()...)
		if len(blob) > math.MaxUint32 {
			return nil, fmt.Errorf("tara: rule keys exceed container limit")
		}
	}
	fences = append(fences, uint32(len(blob)))
	rk := make([]byte, 0, 4*(numRules+2)+len(blob))
	rk = binary.LittleEndian.AppendUint32(rk, uint32(numRules))
	for _, fe := range fences {
		rk = binary.LittleEndian.AppendUint32(rk, fe)
	}
	rk = append(rk, blob...)

	var wins []byte
	wins = binary.AppendUvarint(wins, uint64(len(f.windows)))
	for _, wi := range f.windows {
		wins = binary.AppendUvarint(wins, zigzag64(wi.Period.Start))
		wins = binary.AppendUvarint(wins, zigzag64(wi.Period.End))
		wins = binary.AppendUvarint(wins, uint64(wi.N))
	}

	arch := f.arch.AppendMapped(nil)

	var epsSec []byte
	epsSec = binary.AppendUvarint(epsSec, uint64(len(f.windows)))
	var block []byte
	for w := range f.windows {
		slice, err := f.index.Slice(w)
		if err != nil {
			return nil, fmt.Errorf("tara: window %d: %w", w, err)
		}
		block = slice.AppendMapped(block[:0])
		epsSec = binary.AppendUvarint(epsSec, uint64(len(block)))
		epsSec = append(epsSec, block...)
	}

	b := &kb.Builder{}
	b.Add(kbSecMeta, meta)
	b.Add(kbSecItems, items)
	b.Add(kbSecRuleKeys, rk)
	b.Add(kbSecWindows, wins)
	b.Add(kbSecArchive, arch)
	b.Add(kbSecEPS, epsSec)
	return b, nil
}

// Open loads a knowledge base from path. The container is memory-mapped
// when the platform allows it, with a portable io.ReaderAt fallback; queries
// then run against validated, lazily-materialized views of the file bytes,
// which is what makes cold start milliseconds instead of a full
// deserialize-and-rebuild.
//
// The returned framework owns the mapping; call Close when done with it, and
// not before the last query has returned.
func Open(path string) (*Framework, error) {
	kf, err := kb.Open(path)
	if err != nil {
		return nil, err
	}
	f, err := openKB(kf)
	if err != nil {
		kf.Close()
		return nil, err
	}
	return f, nil
}

// OpenBytes opens a knowledge base held in memory — the zero-I/O twin of
// Open, used for a -kb file read without -mmap and by tests and benchmarks.
// The framework aliases b, which must not be mutated afterwards.
func OpenBytes(b []byte) (*Framework, error) {
	kf, err := kb.OpenBytes(b)
	if err != nil {
		return nil, err
	}
	f, err := openKB(kf)
	if err != nil {
		kf.Close()
		return nil, err
	}
	return f, nil
}

// openKB assembles a framework over an opened container. Every section is
// validated here or in the per-package restore paths (archive.OpenMapped,
// eps.RestoreSlice), so the query paths keep their trusted-bytes contract;
// what stays lazy — rule-key parsing, per-row rule lists, the content
// index — has been bounds-checked already and cannot fail structurally.
func openKB(kf *kb.File) (*Framework, error) {
	cfg, err := readMeta(kf)
	if err != nil {
		return nil, err
	}
	itemDict, err := readItems(kf)
	if err != nil {
		return nil, err
	}
	ruleDict, numRules, err := readRuleKeys(kf)
	if err != nil {
		return nil, err
	}
	windows, err := readWindows(kf)
	if err != nil {
		return nil, err
	}

	archSec, err := kf.Section(kbSecArchive)
	if err != nil {
		return nil, err
	}
	arch, err := archive.OpenMapped(archSec)
	if err != nil {
		return nil, err
	}
	if arch.Windows() != len(windows) {
		return nil, fmt.Errorf("tara: archive has %d windows, metadata %d", arch.Windows(), len(windows))
	}

	epsSec, err := kf.Section(kbSecEPS)
	if err != nil {
		return nil, err
	}
	index := eps.NewIndex()
	sc, n := binary.Uvarint(epsSec)
	if n <= 0 {
		return nil, fmt.Errorf("tara: eps section: bad slice count")
	}
	if sc != uint64(len(windows)) {
		return nil, fmt.Errorf("tara: eps section has %d slices, metadata %d windows", sc, len(windows))
	}
	rest := epsSec[n:]
	for w := range windows {
		bl, n := binary.Uvarint(rest)
		if n <= 0 || bl > uint64(len(rest)-n) {
			return nil, fmt.Errorf("tara: eps section: bad block length for window %d", w)
		}
		block := rest[n : n+int(bl) : n+int(bl)]
		rest = rest[n+int(bl):]
		slice, err := eps.RestoreSlice(w, block, numRules, eps.Options{
			ContentIndex: cfg.ContentIndex,
			Dict:         ruleDict,
		})
		if err != nil {
			return nil, fmt.Errorf("tara: window %d: %w", w, err)
		}
		if slice.N != windows[w].N {
			return nil, fmt.Errorf("tara: window %d slice has N=%d, metadata %d", w, slice.N, windows[w].N)
		}
		if err := index.Append(slice); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("tara: eps section: %d trailing bytes", len(rest))
	}

	f := &Framework{
		cfg:      cfg,
		itemDict: itemDict,
		ruleDict: ruleDict,
		arch:     arch,
		index:    index,
		windows:  windows,
		buildCtr: obs.NewCounterSet(buildCounterNames...),
		kbf:      kf,
		loadMode: kf.Mode(),
	}
	if cfg.QueryCacheSize >= 0 {
		f.qcache = newQueryCache(cfg.QueryCacheSize)
	}
	f.genCtr.Store(uint64(len(windows)))
	return f, nil
}

func readMeta(kf *kb.File) (Config, error) {
	var cfg Config
	meta, err := kf.Section(kbSecMeta)
	if err != nil {
		return cfg, err
	}
	if len(meta) < 16 {
		return cfg, fmt.Errorf("tara: meta section truncated")
	}
	cfg.GenMinSupport = math.Float64frombits(binary.LittleEndian.Uint64(meta))
	cfg.GenMinConf = math.Float64frombits(binary.LittleEndian.Uint64(meta[8:]))
	rest := meta[16:]
	maxLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return cfg, fmt.Errorf("tara: meta section: bad maxLen")
	}
	cfg.MaxItemsetLen = int(unzigzag64(maxLen))
	rest = rest[n:]
	ci, n := binary.Uvarint(rest)
	if n <= 0 {
		return cfg, fmt.Errorf("tara: meta section: bad contentIndex")
	}
	cfg.ContentIndex = ci == 1
	rest = rest[n:]
	ml, n := binary.Uvarint(rest)
	if n <= 0 || ml > uint64(len(rest)-n) {
		return cfg, fmt.Errorf("tara: meta section: bad miner name")
	}
	cfg.Miner, err = mining.ByName(string(rest[n : n+int(ml)]))
	if err != nil {
		return cfg, err
	}
	if len(rest[n+int(ml):]) != 0 {
		return cfg, fmt.Errorf("tara: meta section: trailing bytes")
	}
	return cfg, nil
}

func readItems(kf *kb.File) (*txdb.Dict, error) {
	items, err := kf.Section(kbSecItems)
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(items)
	if n <= 0 {
		return nil, fmt.Errorf("tara: items section: bad count")
	}
	rest := items[n:]
	// Two bytes minimum per entry (length varint + at least nothing) cannot
	// hold: a length varint is at least one byte, so count is bounded.
	if count > uint64(len(rest))+1 {
		return nil, fmt.Errorf("tara: items section: implausible count %d", count)
	}
	d := txdb.NewDict()
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, fmt.Errorf("tara: items section: bad name %d", i)
		}
		d.Add(string(rest[n : n+int(l)]))
		rest = rest[n+int(l):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("tara: items section: %d trailing bytes", len(rest))
	}
	if d.Len() != int(count) {
		return nil, fmt.Errorf("tara: items section: duplicate names")
	}
	return d, nil
}

// readRuleKeys validates the fence table and hands the dictionary a lazy
// view of the key blob: every key is length-delimited by the fences, so the
// dictionary can parse key i in O(|key|) on first use without Open paying
// for the parse (or the intern map) up front.
func readRuleKeys(kf *kb.File) (*rules.Dict, int, error) {
	rk, err := kf.Section(kbSecRuleKeys)
	if err != nil {
		return nil, 0, err
	}
	if len(rk) < 8 {
		return nil, 0, fmt.Errorf("tara: rulekeys section truncated")
	}
	count := int(binary.LittleEndian.Uint32(rk))
	if count+2 > (len(rk))/4+1 || 4+4*(count+1) > len(rk) {
		return nil, 0, fmt.Errorf("tara: rulekeys section: implausible count %d", count)
	}
	fenceBytes := rk[4 : 4+4*(count+1)]
	blob := rk[4+4*(count+1):]
	fences := make([]uint32, count+1)
	prev := uint32(0)
	for i := range fences {
		fences[i] = binary.LittleEndian.Uint32(fenceBytes[4*i:])
		if fences[i] < prev {
			return nil, 0, fmt.Errorf("tara: rulekeys section: fence %d decreases", i)
		}
		prev = fences[i]
	}
	if int(fences[count]) != len(blob) {
		return nil, 0, fmt.Errorf("tara: rulekeys section: fences cover %d of %d blob bytes", fences[count], len(blob))
	}
	d := rules.NewLazyDict(count, func(i int) []byte {
		return blob[fences[i]:fences[i+1]:fences[i+1]]
	})
	return d, count, nil
}

func readWindows(kf *kb.File) ([]WindowInfo, error) {
	wins, err := kf.Section(kbSecWindows)
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(wins)
	if n <= 0 {
		return nil, fmt.Errorf("tara: windows section: bad count")
	}
	rest := wins[n:]
	// Each window takes at least three varint bytes.
	if count > uint64(len(rest))/3+1 {
		return nil, fmt.Errorf("tara: windows section: implausible count %d", count)
	}
	out := make([]WindowInfo, count)
	for i := range out {
		var vals [3]uint64
		for j := range vals {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("tara: windows section: bad window %d", i)
			}
			vals[j] = v
			rest = rest[n:]
		}
		if vals[2] > math.MaxUint32 {
			return nil, fmt.Errorf("tara: window %d cardinality %d exceeds uint32", i, vals[2])
		}
		out[i] = WindowInfo{
			Index:  i,
			Period: txdb.Period{Start: unzigzag64(vals[0]), End: unzigzag64(vals[1])},
			N:      uint32(vals[2]),
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("tara: windows section: %d trailing bytes", len(rest))
	}
	return out, nil
}

// LoadMode reports how the knowledge base entered memory: "heap" for built
// frameworks, "mmap" / "readerat" for Open depending on how the platform let
// us access the file, "bytes" for OpenBytes.
func (f *Framework) LoadMode() string {
	if f.loadMode == "" {
		return "heap"
	}
	return f.loadMode
}

// Close releases the knowledge-base mapping, if any. The framework must not
// be used afterwards: mapped frameworks serve queries from views of the
// file bytes, which Close invalidates. It is a no-op for built frameworks.
func (f *Framework) Close() error {
	if f.kbf == nil {
		return nil
	}
	return f.kbf.Close()
}

func zigzag64(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
