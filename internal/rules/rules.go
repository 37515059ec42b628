// Package rules defines the temporal association rule model of the paper
// (Definition 1) together with its interestingness measures — support,
// confidence and lift (Formulas 1–3) — plus rule generation from frequent
// itemsets and a rule dictionary that interns rules to dense identifiers for
// the TAR Archive and the EPS index.
package rules

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tara/internal/itemset"
	"tara/internal/mining"
	"tara/internal/txdb"
)

// Rule is an association rule Antecedent ⇒ Consequent over disjoint,
// canonical itemsets.
type Rule struct {
	Ant  itemset.Set
	Cons itemset.Set
}

// maxAntecedentLen bounds the antecedent length a rule key can encode.
const maxAntecedentLen = 255

// Key returns a canonical string key for the rule: one byte of antecedent
// length followed by the two itemset keys. Distinct rules produce distinct
// keys. It panics if the antecedent exceeds maxAntecedentLen items, which is
// far beyond any mining configuration in this repository.
func (r Rule) Key() string {
	if len(r.Ant) > maxAntecedentLen {
		panic(fmt.Sprintf("rules: antecedent of %d items exceeds key limit", len(r.Ant)))
	}
	var b strings.Builder
	b.Grow(1 + 4*(len(r.Ant)+len(r.Cons)))
	b.WriteByte(byte(len(r.Ant)))
	b.WriteString(itemset.Key(r.Ant))
	b.WriteString(itemset.Key(r.Cons))
	return b.String()
}

// FromKey decodes a rule key produced by Key.
func FromKey(k string) (Rule, error) {
	if len(k) < 1 {
		return Rule{}, fmt.Errorf("rules: empty key")
	}
	antLen := int(k[0])
	if len(k)-1 < 4*antLen || (len(k)-1)%4 != 0 {
		return Rule{}, fmt.Errorf("rules: malformed key of length %d", len(k))
	}
	ant, err := itemset.FromKey(k[1 : 1+4*antLen])
	if err != nil {
		return Rule{}, err
	}
	cons, err := itemset.FromKey(k[1+4*antLen:])
	if err != nil {
		return Rule{}, err
	}
	return Rule{Ant: ant, Cons: cons}, nil
}

// Items returns the union of antecedent and consequent.
func (r Rule) Items() itemset.Set { return itemset.Union(r.Ant, r.Cons) }

// Equal reports structural equality.
func (r Rule) Equal(o Rule) bool {
	return itemset.Equal(r.Ant, o.Ant) && itemset.Equal(r.Cons, o.Cons)
}

// String renders the rule with numeric item ids.
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v", r.Ant, r.Cons)
}

// Format renders the rule using the dictionary's item names.
func (r Rule) Format(d *txdb.Dict) string {
	var b strings.Builder
	writeNames := func(s itemset.Set) {
		b.WriteByte('[')
		for i, it := range s {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(d.Name(it))
		}
		b.WriteByte(']')
	}
	writeNames(r.Ant)
	b.WriteString(" => ")
	writeNames(r.Cons)
	return b.String()
}

// Stats holds the occurrence counts a rule's measures derive from within one
// time period: CountXY for X∪Y, CountX for the antecedent, CountY for the
// consequent, and N transactions in the period. Keeping integer counts (not
// float measures) is what makes time roll-up exact — counts add across
// windows while supports do not.
type Stats struct {
	CountXY uint32
	CountX  uint32
	CountY  uint32
	N       uint32
}

// Support is Formula 1: |F(X∪Y)| / |F(∅)|.
func (s Stats) Support() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.CountXY) / float64(s.N)
}

// Confidence is Formula 2: |F(X∪Y)| / |F(X)|.
func (s Stats) Confidence() float64 {
	if s.CountX == 0 {
		return 0
	}
	return float64(s.CountXY) / float64(s.CountX)
}

// Lift is Formula 3 (the reporting ratio RR of the MARAS evaluation):
// how many times more often X and Y co-occur than if independent.
func (s Stats) Lift() float64 {
	if s.CountX == 0 || s.CountY == 0 {
		return 0
	}
	return float64(s.CountXY) * float64(s.N) / (float64(s.CountX) * float64(s.CountY))
}

// Merge adds the counts of two periods, implementing exact roll-up.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		CountXY: s.CountXY + o.CountXY,
		CountX:  s.CountX + o.CountX,
		CountY:  s.CountY + o.CountY,
		N:       s.N + o.N,
	}
}

// WithStats couples a rule with its per-period statistics.
type WithStats struct {
	Rule
	Stats
}

// GenParams controls rule generation.
type GenParams struct {
	// MinCount is the absolute support threshold for X∪Y.
	MinCount uint32
	// MinConf is the minimum confidence in [0,1].
	MinConf float64
	// MaxAnt caps the antecedent length; non-positive means unlimited.
	MaxAnt int
}

// Generate derives all association rules from the frequent itemsets in res
// whose joint count meets p.MinCount and whose confidence meets p.MinConf.
// Every proper non-empty split of each frequent itemset is considered
// (antecedent ⇒ remainder); counts for both sides exist in res by downward
// closure. Output order is deterministic: canonical order of X∪Y, then of
// the antecedent.
func Generate(res *mining.Result, p GenParams) ([]WithStats, error) {
	var out []WithStats
	// Sort a copy of the sets for deterministic output without mutating res.
	sets := make([]mining.FrequentSet, len(res.Sets))
	copy(sets, res.Sets)
	sort.Slice(sets, func(i, j int) bool {
		return itemset.Compare(sets[i].Items, sets[j].Items) < 0
	})
	for _, fs := range sets {
		if len(fs.Items) < 2 || fs.Count < p.MinCount {
			continue
		}
		z := fs.Items
		countXY := fs.Count
		var genErr error
		err := itemset.ProperNonEmptySubsets(z, func(ant itemset.Set) {
			if p.MaxAnt > 0 && len(ant) > p.MaxAnt {
				return
			}
			countX, ok := res.Count(ant)
			if !ok {
				genErr = fmt.Errorf("rules: antecedent %v of frequent %v missing from result", ant, z)
				return
			}
			conf := float64(countXY) / float64(countX)
			if conf < p.MinConf {
				return
			}
			cons := itemset.Diff(z, ant)
			countY, ok := res.Count(cons)
			if !ok {
				genErr = fmt.Errorf("rules: consequent %v of frequent %v missing from result", cons, z)
				return
			}
			out = append(out, WithStats{
				Rule: Rule{Ant: itemset.Clone(ant), Cons: cons},
				Stats: Stats{
					CountXY: countXY,
					CountX:  countX,
					CountY:  countY,
					N:       uint32(res.N),
				},
			})
		})
		if err != nil {
			return nil, err
		}
		if genErr != nil {
			return nil, genErr
		}
	}
	return out, nil
}

// ID is a dense rule identifier assigned by a Dict.
type ID uint32

// Dict interns rules to dense IDs shared across windows, so the archive and
// index refer to rules by number. A Dict is safe for concurrent use: readers
// (Lookup, Rule, Len) may run while new windows intern rules via Add, which
// the query-serving daemon relies on when answering requests during an
// incremental append.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]ID
	rules []Rule // rules added after the lazy base (all rules for heap dicts)

	// Lazy base (see NewLazyDict): ids [0, lazyN) resolve by parsing keyAt(i)
	// on demand, cached in lazy. The key→id map and every parsed rule are
	// forced only when Add or Lookup needs the full map. forced flags that
	// the map covers the base; guarded by mu.
	lazyN  int
	keyAt  func(i int) []byte
	lazy   []atomic.Pointer[lazyRule]
	forced bool
}

// lazyRule caches one on-demand parse, including failures (a corrupt
// persisted key stays unresolvable rather than being re-parsed every call).
type lazyRule struct {
	r  Rule
	ok bool
}

// NewDict returns an empty rule dictionary.
func NewDict() *Dict { return &Dict{ids: map[string]ID{}} }

// NewLazyDict returns a dictionary pre-populated with n interned rules whose
// serialized keys are provided by keyAt (ids 0..n-1, in id order). Keys are
// parsed on first Rule lookup and cached — opening a persisted knowledge
// base pays nothing per rule until a query materializes it. Add and Lookup
// force the full key→id map (and thus every parse) on first use.
func NewLazyDict(n int, keyAt func(i int) []byte) *Dict {
	return &Dict{lazyN: n, keyAt: keyAt, lazy: make([]atomic.Pointer[lazyRule], n)}
}

// forceLocked parses every unparsed base key and builds the key→id map.
// Caller holds mu for writing. Unparseable keys (corrupt persisted data) are
// left unresolvable; their ids simply never match a Lookup.
func (d *Dict) forceLocked() {
	if d.forced || d.lazyN == 0 {
		d.forced = true
		if d.ids == nil {
			d.ids = map[string]ID{}
		}
		return
	}
	if d.ids == nil {
		d.ids = make(map[string]ID, d.lazyN)
	}
	for i := 0; i < d.lazyN; i++ {
		lr := d.lazy[i].Load()
		if lr == nil {
			r, err := FromKey(string(d.keyAt(i)))
			lr = &lazyRule{r: r, ok: err == nil}
			d.lazy[i].Store(lr)
		}
		if lr.ok {
			d.ids[lr.r.Key()] = ID(i)
		}
	}
	d.forced = true
}

// Add returns the ID for r, allocating one on first sight.
func (d *Dict) Add(r Rule) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.forced && d.lazyN > 0 {
		d.forceLocked()
	}
	if d.ids == nil {
		d.ids = map[string]ID{}
	}
	k := r.Key()
	if id, ok := d.ids[k]; ok {
		return id
	}
	id := ID(d.lazyN + len(d.rules))
	d.ids[k] = id
	d.rules = append(d.rules, r)
	return id
}

// Lookup returns the ID for r if it has been added.
func (d *Dict) Lookup(r Rule) (ID, bool) {
	if d.lazyN > 0 {
		d.mu.Lock()
		d.forceLocked()
		d.mu.Unlock()
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[r.Key()]
	return id, ok
}

// Rule returns the rule for id. ok is false for out-of-range ids (and for
// lazy-base ids whose persisted key does not parse). Lazy-base resolution is
// lock-free: the parse result is published with an atomic pointer, so
// concurrent readers never contend with each other or with Add.
func (d *Dict) Rule(id ID) (Rule, bool) {
	if int(id) < d.lazyN {
		if lr := d.lazy[id].Load(); lr != nil {
			return lr.r, lr.ok
		}
		r, err := FromKey(string(d.keyAt(int(id))))
		lr := &lazyRule{r: r, ok: err == nil}
		// A racing parse of the same key wins or loses immaterially — both
		// compute identical values from the same immutable bytes.
		d.lazy[id].CompareAndSwap(nil, lr)
		lr = d.lazy[id].Load()
		return lr.r, lr.ok
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id)-d.lazyN >= len(d.rules) {
		return Rule{}, false
	}
	return d.rules[int(id)-d.lazyN], true
}

// Len returns the number of interned rules.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lazyN + len(d.rules)
}
