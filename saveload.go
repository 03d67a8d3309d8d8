package bwtmatch

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/binio"
	"bwtmatch/internal/core"
	"bwtmatch/internal/fmindex"
)

// ErrFormat reports an unreadable saved index.
var ErrFormat = errors.New("bwtmatch: bad index file format")

const fileMagic = uint32(0xB3711DF1) // container around fmindex's format, v1

// Save serializes the index (the BWT structures plus the 2-bit-packed
// target text) so it can be reloaded with Load without re-running suffix
// array construction. A 16 MiB genome saves in well under a second and
// loads in milliseconds.
func (x *Index) Save(w io.Writer) error {
	if x.searcher.Index().IsRelative() {
		return errors.New("bwtmatch: relative index cannot be saved standalone; use RelativeIndex.Save")
	}
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, fileMagic); err != nil {
		return err
	}
	text := x.targetText()
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(text))); err != nil {
		return err
	}
	packed, err := alphabet.Pack(text)
	if err != nil {
		return err
	}
	words := packed.Words()
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(words))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, words); err != nil {
		return err
	}
	if err := writeRefTable(bw, x.refs); err != nil {
		return err
	}
	if _, err := x.searcher.Index().WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// writeRefTable serializes the (possibly empty) reference table, the
// encoding shared by every container layout.
func writeRefTable(bw *bufio.Writer, refs []Ref) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(refs))); err != nil {
		return err
	}
	for _, r := range refs {
		name := []byte(r.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(r.Start)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(r.Len)); err != nil {
			return err
		}
	}
	return nil
}

// readRefTable deserializes a reference table against a target of n
// bases, enforcing the count, name-length, and span caps. Errors wrap
// ErrFormat.
func readRefTable(br *bufio.Reader, n uint64) ([]Ref, error) {
	var refCount uint32
	if err := binary.Read(br, binary.LittleEndian, &refCount); err != nil {
		return nil, fmt.Errorf("%w: ref table: %v", ErrFormat, err)
	}
	if refCount > 1<<20 {
		return nil, fmt.Errorf("%w: %d references", ErrFormat, refCount)
	}
	var refs []Ref
	for i := uint32(0); i < refCount; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil || nameLen > 1<<16 {
			return nil, fmt.Errorf("%w: ref %d name", ErrFormat, i)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: ref %d name: %v", ErrFormat, i, err)
		}
		var start, length uint64
		if err := binary.Read(br, binary.LittleEndian, &start); err != nil {
			return nil, fmt.Errorf("%w: ref %d start", ErrFormat, i)
		}
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return nil, fmt.Errorf("%w: ref %d length", ErrFormat, i)
		}
		if start > n || length > n-start {
			return nil, fmt.Errorf("%w: ref %d spans [%d,%d) of %d", ErrFormat, i, start, start+length, n)
		}
		refs = append(refs, Ref{Name: string(name), Start: int(start), Len: int(length)})
	}
	return refs, nil
}

// SaveFile saves the index to a file.
func (x *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := x.Save(f); err != nil {
		f.Close() //kmvet:ignore closeerr save already failed; the write error is the one to report
		return err
	}
	return f.Close()
}

// Load deserializes an index written by Save.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrFormat, magic)
	}
	var n, words uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &words); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	const maxLen = 1 << 34
	if n > maxLen || words > maxLen || words*32 < n {
		return nil, fmt.Errorf("%w: text %d bases in %d words", ErrFormat, n, words)
	}
	payload, err := binio.ReadSlice[uint64](br, words)
	if err != nil {
		return nil, fmt.Errorf("%w: text payload: %v", ErrFormat, err)
	}
	text := alphabet.FromWords(payload, int(n)).Unpack()
	refs, err := readRefTable(br, n)
	if err != nil {
		return nil, err
	}
	idx, err := fmindex.ReadIndex(br)
	if err != nil {
		// fmindex wraps its own sentinel; re-wrap so callers can match the
		// package-level ErrFormat regardless of which layer rejected the file.
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if idx.N() != int(n) {
		return nil, fmt.Errorf("%w: text length %d but index over %d", ErrFormat, n, idx.N())
	}
	return &Index{
		text:     text,
		searcher: core.NewSearcherFromIndex(idx, int(n)),
		refs:     refs,
	}, nil
}

// LoadFile loads an index from a file.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
