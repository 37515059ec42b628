// Package txdb implements the temporal transaction database that TARA mines:
// dictionary-encoded items, timestamped transactions, and the tumbling-window
// partitioning of Definition 8 in the paper ("time availability") that fixes
// the finest time granularity every other component operates at.
package txdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tara/internal/itemset"
)

// Item re-exports the dictionary-encoded item identifier.
type Item = itemset.Item

// Transaction is a single timestamped transaction: a canonical itemset that
// occurred at Time. Time units are opaque (the window size is expressed in
// the same units).
type Transaction struct {
	Time  int64
	Items itemset.Set
}

// Period is a closed time period [Start, End].
type Period struct {
	Start, End int64
}

// Contains reports whether t falls inside the period.
func (p Period) Contains(t int64) bool { return p.Start <= t && t <= p.End }

// Overlaps reports whether two periods intersect.
func (p Period) Overlaps(q Period) bool { return p.Start <= q.End && q.Start <= p.End }

// String renders the period as "[start,end]".
func (p Period) String() string { return fmt.Sprintf("[%d,%d]", p.Start, p.End) }

// Dict maps external item names to dense Item identifiers and back. The zero
// value is ready to use.
type Dict struct {
	ids   map[string]Item
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: map[string]Item{}} }

// Add returns the identifier for name, allocating a new one on first sight.
func (d *Dict) Add(name string) Item {
	if d.ids == nil {
		d.ids = map[string]Item{}
	}
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := Item(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the identifier for name if it has been added.
func (d *Dict) Lookup(name string) (Item, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the external name of id, or a placeholder for unknown ids.
func (d *Dict) Name(id Item) string {
	if int(id) < len(d.names) {
		return d.names[id]
	}
	return fmt.Sprintf("item#%d", id)
}

// Len returns the number of distinct items.
func (d *Dict) Len() int { return len(d.names) }

// DB is an evolving transaction database ordered by time.
type DB struct {
	Dict *Dict
	Tx   []Transaction
}

// NewDB returns an empty database with a fresh dictionary.
func NewDB() *DB { return &DB{Dict: NewDict()} }

// Add appends a transaction with the given timestamp and item names.
// Names are dictionary-encoded; duplicates within a transaction collapse.
func (db *DB) Add(time int64, names ...string) {
	items := make(itemset.Set, 0, len(names))
	for _, n := range names {
		items = append(items, db.Dict.Add(n))
	}
	db.Tx = append(db.Tx, Transaction{Time: time, Items: itemset.Canonicalize(items)})
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.Tx) }

// SortByTime orders transactions chronologically (stable, so insertion order
// breaks ties).
func (db *DB) SortByTime() {
	sort.SliceStable(db.Tx, func(i, j int) bool { return db.Tx[i].Time < db.Tx[j].Time })
}

// TimeRange returns the closed period spanned by the database. ok is false
// for an empty database.
func (db *DB) TimeRange() (p Period, ok bool) {
	if len(db.Tx) == 0 {
		return Period{}, false
	}
	p.Start, p.End = db.Tx[0].Time, db.Tx[0].Time
	for _, t := range db.Tx[1:] {
		if t.Time < p.Start {
			p.Start = t.Time
		}
		if t.Time > p.End {
			p.End = t.Time
		}
	}
	return p, true
}

// Stats summarizes a database for reporting (Table 3 of the paper).
type Stats struct {
	Transactions int
	UniqueItems  int
	AvgLen       float64
	MaxLen       int
	Period       Period
}

// Stats computes summary statistics over the database. UniqueItems counts
// items that actually occur in transactions, which may be fewer than
// Dict.Len if the dictionary has unused entries.
func (db *DB) Stats() Stats {
	var s Stats
	s.Transactions = len(db.Tx)
	seen := map[Item]bool{}
	total := 0
	for _, t := range db.Tx {
		total += len(t.Items)
		if len(t.Items) > s.MaxLen {
			s.MaxLen = len(t.Items)
		}
		for _, it := range t.Items {
			seen[it] = true
		}
	}
	s.UniqueItems = len(seen)
	if s.Transactions > 0 {
		s.AvgLen = float64(total) / float64(s.Transactions)
	}
	s.Period, _ = db.TimeRange()
	return s
}

// Window is one tumbling window of the evolving database: the transactions
// whose timestamps fall in Period, at window index Index.
type Window struct {
	Index  int
	Period Period
	Tx     []Transaction
}

// maxWindows bounds how many tumbling windows a partitioning may produce.
// A sparse database with a tiny window size would otherwise materialize one
// Window struct per empty time slot — an easy way to exhaust memory from a
// single bad parameter.
const maxWindows = 1 << 22

// PartitionByTime splits the database into consecutive tumbling windows of
// the given size (in time units), starting at the earliest timestamp. Empty
// windows inside the covered range are kept so that window indexes remain a
// contiguous time axis. Transactions must not be mutated afterwards; windows
// alias the database storage. The database is sorted by time as a side
// effect.
//
// Degenerate inputs are rejected with descriptive errors rather than
// producing empty or single-window partitions: an empty database, a window
// size exceeding the timestamp span (which cannot partition anything), and a
// window size so small the covered range would explode into more than
// maxWindows windows.
func (db *DB) PartitionByTime(windowSize int64) ([]Window, error) {
	if windowSize <= 0 {
		return nil, fmt.Errorf("txdb: window size must be positive, got %d", windowSize)
	}
	if len(db.Tx) == 0 {
		return nil, fmt.Errorf("txdb: cannot partition an empty database")
	}
	db.SortByTime()
	start := db.Tx[0].Time
	end := db.Tx[len(db.Tx)-1].Time
	span := end - start + 1 // closed period length in time units
	if windowSize > span {
		return nil, fmt.Errorf("txdb: window size %d exceeds the timestamp span %d ([%d,%d]); the database cannot be partitioned at that granularity",
			windowSize, span, start, end)
	}
	if (end-start)/windowSize >= maxWindows {
		return nil, fmt.Errorf("txdb: window size %d over span [%d,%d] would produce %d windows (limit %d)",
			windowSize, start, end, (end-start)/windowSize+1, maxWindows)
	}
	n := int((end-start)/windowSize) + 1
	windows := make([]Window, n)
	for i := range windows {
		ws := start + int64(i)*windowSize
		windows[i] = Window{Index: i, Period: Period{Start: ws, End: ws + windowSize - 1}}
	}
	lo := 0
	for i := range windows {
		hi := lo
		for hi < len(db.Tx) && windows[i].Period.Contains(db.Tx[hi].Time) {
			hi++
		}
		windows[i].Tx = db.Tx[lo:hi]
		lo = hi
	}
	return windows, nil
}

// PartitionByCount splits the database into n equal-sized batches in time
// order, mirroring how the paper partitions its benchmark datasets ("5
// equal-sized batches"). Each batch's Period is the span of its own
// transactions. The final batch absorbs the remainder.
//
// Degenerate inputs are rejected with descriptive errors rather than
// silently producing fewer or empty batches: an empty database, and a batch
// count exceeding the number of transactions (which would force zero-length
// windows).
func (db *DB) PartitionByCount(n int) ([]Window, error) {
	if n <= 0 {
		return nil, fmt.Errorf("txdb: batch count must be positive, got %d", n)
	}
	if len(db.Tx) == 0 {
		return nil, fmt.Errorf("txdb: cannot partition an empty database")
	}
	if n > len(db.Tx) {
		return nil, fmt.Errorf("txdb: %d batches exceed the %d transactions available; every batch would need at least one transaction", n, len(db.Tx))
	}
	db.SortByTime()
	per := len(db.Tx) / n
	windows := make([]Window, n)
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if i == n-1 {
			hi = len(db.Tx)
		}
		tx := db.Tx[lo:hi]
		windows[i] = Window{
			Index:  i,
			Period: Period{Start: tx[0].Time, End: tx[len(tx)-1].Time},
			Tx:     tx,
		}
	}
	return windows, nil
}

// InPeriod returns the transactions whose timestamps fall in p, in time
// order. The database must already be sorted by time (Partition* sort it).
func (db *DB) InPeriod(p Period) []Transaction {
	if p.Start > p.End {
		return nil
	}
	lo := sort.Search(len(db.Tx), func(i int) bool { return db.Tx[i].Time >= p.Start })
	hi := sort.Search(len(db.Tx), func(i int) bool { return db.Tx[i].Time > p.End })
	return db.Tx[lo:hi]
}

// WriteTo serializes the database as one transaction per line:
// "timestamp<TAB>name name name...". It returns the number of bytes written.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, t := range db.Tx {
		var sb strings.Builder
		sb.WriteString(strconv.FormatInt(t.Time, 10))
		sb.WriteByte('\t')
		for i, it := range t.Items {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(db.Dict.Name(it))
		}
		sb.WriteByte('\n')
		m, err := bw.WriteString(sb.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses the WriteTo format into a fresh database.
func Read(r io.Reader) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		tab := strings.IndexByte(text, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("txdb: line %d: missing tab separator", line)
		}
		ts, err := strconv.ParseInt(text[:tab], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("txdb: line %d: bad timestamp: %v", line, err)
		}
		names := strings.Fields(text[tab+1:])
		db.Add(ts, names...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: read: %v", err)
	}
	return db, nil
}
