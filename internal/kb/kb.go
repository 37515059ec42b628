// Package kb implements the versioned, mmap-friendly knowledge-base
// container: a flat file of byte sections addressed by a fixed-width section
// table at the front. The layout is designed so a reader can serve queries
// straight out of the mapped bytes — every section is self-contained, offsets
// are absolute, and sections start on 8-byte boundaries.
//
// Layout (all integers little-endian, fixed width):
//
//	offset 0:  magic "TARAKB2\n" (8 bytes)
//	offset 8:  format version (uint32)
//	offset 12: section count (uint32)
//	offset 16: section table — per section 24 bytes:
//	           id (uint32), reserved (uint32, zero),
//	           offset (uint64), length (uint64)
//	then:      section payloads, each 8-byte aligned, zero padding between
//
// The container knows nothing about section contents; internal/archive,
// internal/eps and internal/tara define what lives inside their sections.
// Open maps the whole file read-only when the platform supports it and falls
// back to a portable io.ReaderAt that loads sections lazily on first access.
package kb

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// Magic identifies a version-2 knowledge-base container.
const Magic = "TARAKB2\n"

// removedMagic opened the TARAKB1 stream, the format this container
// replaced. Such files are no longer read; they are recognized only to say
// how to replace them.
const removedMagic = "TARAKB1\n"

// Version is the current container format version. Readers reject files with
// a different version rather than guessing at their layout.
const Version = 1

// SectionID names one section of the container. IDs are assigned by the
// writer (internal/tara); the container only requires them to be unique.
type SectionID uint32

const (
	headerFixed = 16 // magic + version + section count
	entrySize   = 24 // id + reserved + offset + length
	// maxSections bounds the section table so a corrupt count cannot drive a
	// huge allocation; real containers have fewer than ten sections.
	maxSections = 1024
)

type section struct {
	id  SectionID
	off uint64
	len uint64
}

// Builder assembles a container in memory. Sections are written in Add
// order; WriteTo computes the table and emits the whole file.
type Builder struct {
	sections []SectionID
	data     [][]byte
}

// Add appends one section. Adding the same id twice is a programming error
// surfaced at WriteTo time.
func (b *Builder) Add(id SectionID, data []byte) {
	b.sections = append(b.sections, id)
	b.data = append(b.data, data)
}

// WriteTo emits the container. It implements io.WriterTo.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	seen := map[SectionID]bool{}
	for _, id := range b.sections {
		if seen[id] {
			return 0, fmt.Errorf("kb: duplicate section id %d", id)
		}
		seen[id] = true
	}
	headerLen := uint64(headerFixed + entrySize*len(b.sections))
	hdr := make([]byte, headerLen)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(b.sections)))
	off := align8(headerLen)
	for i, id := range b.sections {
		e := hdr[headerFixed+entrySize*i:]
		binary.LittleEndian.PutUint32(e, uint32(id))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(b.data[i])))
		off = align8(off + uint64(len(b.data[i])))
	}
	var n int64
	write := func(p []byte) error {
		m, err := w.Write(p)
		n += int64(m)
		return err
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	var pad [8]byte
	written := headerLen
	for _, data := range b.data {
		if p := align8(written) - written; p > 0 {
			if err := write(pad[:p]); err != nil {
				return n, err
			}
			written += p
		}
		if err := write(data); err != nil {
			return n, err
		}
		written += uint64(len(data))
	}
	return n, nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// File is an opened container. Section bytes come from one of three modes:
// "mmap" (the whole file is memory-mapped, sections alias the mapping),
// "readerat" (sections are read on first access through an io.ReaderAt and
// cached), or "bytes" (the caller handed over an in-memory image). Section
// is safe for concurrent use; the returned byte slices are read-only and
// remain valid until Close.
type File struct {
	mode     string
	data     []byte // mmap or bytes mode; nil in readerat mode
	r        io.ReaderAt
	size     int64
	sections []section
	closeFn  func() error

	mu    sync.Mutex
	cache map[SectionID][]byte // readerat mode: lazily loaded sections
}

// Open opens a container file, preferring a read-only memory mapping and
// falling back to lazy io.ReaderAt section reads when mapping is
// unavailable (non-unix platforms, or mmap failure on exotic filesystems).
func Open(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, err
	}
	size := st.Size()
	if data, unmap, err := mmapFile(fh, size); err == nil {
		f := &File{mode: "mmap", data: data, size: size}
		f.closeFn = func() error {
			err := unmap()
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
			return err
		}
		if err := f.parseHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	f := &File{mode: "readerat", r: fh, size: size, closeFn: fh.Close, cache: map[SectionID][]byte{}}
	if err := f.parseHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// OpenBytes opens an in-memory container image. The File aliases b; the
// caller must not mutate it while the File is in use.
func OpenBytes(b []byte) (*File, error) {
	f := &File{mode: "bytes", data: b, size: int64(len(b))}
	if err := f.parseHeader(); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenReaderAt opens a container through an io.ReaderAt without attempting
// to map it — the portable fallback path, exported so tests exercise it on
// every platform.
func OpenReaderAt(r io.ReaderAt, size int64) (*File, error) {
	f := &File{mode: "readerat", r: r, size: size, cache: map[SectionID][]byte{}}
	if err := f.parseHeader(); err != nil {
		return nil, err
	}
	return f, nil
}

// readAt returns length bytes at off, from the mapping or the reader.
func (f *File) readAt(off, length uint64) ([]byte, error) {
	if f.data != nil {
		return f.data[off : off+length : off+length], nil
	}
	b := make([]byte, length)
	if _, err := f.r.ReadAt(b, int64(off)); err != nil {
		return nil, err
	}
	return b, nil
}

// parseHeader validates the magic, version and section table. Every offset
// and length is bounds-checked against the file size here, so Section never
// has to re-validate.
func (f *File) parseHeader() error {
	if f.size < headerFixed {
		return fmt.Errorf("kb: file too short for header (%d bytes)", f.size)
	}
	hdr, err := f.readAt(0, headerFixed)
	if err != nil {
		return fmt.Errorf("kb: reading header: %w", err)
	}
	if string(hdr[:8]) == removedMagic {
		return fmt.Errorf("kb: file is a TARAKB1 knowledge base, a format no longer read; rebuild it from its transactions with tara -load <transactions> -save <kb>")
	}
	if string(hdr[:8]) != Magic {
		return fmt.Errorf("kb: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return fmt.Errorf("kb: unsupported container version %d (want %d)", v, Version)
	}
	count := binary.LittleEndian.Uint32(hdr[12:])
	if count > maxSections {
		return fmt.Errorf("kb: implausible section count %d", count)
	}
	tableLen := uint64(entrySize) * uint64(count)
	if headerFixed+tableLen > uint64(f.size) {
		return fmt.Errorf("kb: section table (%d entries) exceeds file size %d", count, f.size)
	}
	table, err := f.readAt(headerFixed, tableLen)
	if err != nil {
		return fmt.Errorf("kb: reading section table: %w", err)
	}
	headerEnd := headerFixed + tableLen
	seen := map[SectionID]bool{}
	f.sections = make([]section, count)
	for i := range f.sections {
		e := table[entrySize*i:]
		s := section{
			id:  SectionID(binary.LittleEndian.Uint32(e)),
			off: binary.LittleEndian.Uint64(e[8:]),
			len: binary.LittleEndian.Uint64(e[16:]),
		}
		if seen[s.id] {
			return fmt.Errorf("kb: duplicate section id %d", s.id)
		}
		seen[s.id] = true
		if s.off < headerEnd {
			return fmt.Errorf("kb: section %d offset %d overlaps header", s.id, s.off)
		}
		if s.off > uint64(f.size) || s.len > uint64(f.size)-s.off {
			return fmt.Errorf("kb: section %d [%d,+%d) exceeds file size %d", s.id, s.off, s.len, f.size)
		}
		f.sections[i] = s
	}
	return nil
}

// Section returns the bytes of section id. In readerat mode the section is
// loaded on first access and cached; in mmap/bytes mode it aliases the
// underlying image. The returned slice must not be mutated.
func (f *File) Section(id SectionID) ([]byte, error) {
	for _, s := range f.sections {
		if s.id != id {
			continue
		}
		if f.data != nil {
			return f.data[s.off : s.off+s.len : s.off+s.len], nil
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if b, ok := f.cache[id]; ok {
			return b, nil
		}
		b, err := f.readAt(s.off, s.len)
		if err != nil {
			return nil, fmt.Errorf("kb: reading section %d: %w", id, err)
		}
		f.cache[id] = b
		return b, nil
	}
	return nil, fmt.Errorf("kb: container has no section %d", id)
}

// Has reports whether the container holds section id.
func (f *File) Has(id SectionID) bool {
	for _, s := range f.sections {
		if s.id == id {
			return true
		}
	}
	return false
}

// Mode reports how section bytes are served: "mmap", "readerat" or "bytes".
func (f *File) Mode() string { return f.mode }

// Size returns the container file size in bytes.
func (f *File) Size() int64 { return f.size }

// Close releases the mapping or underlying file. Section slices obtained
// from an mmap-mode File are invalid after Close.
func (f *File) Close() error {
	if f.closeFn == nil {
		return nil
	}
	fn := f.closeFn
	f.closeFn = nil
	return fn()
}
