package bwtmatch

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"bwtmatch/internal/fmindex"
)

// relativeMagic identifies the relative container: a delta payload that
// is only usable alongside the base index it was built against. The
// container binds to the base by content hash, not by path — the path
// is a hint.
const relativeMagic = uint32(0xB3711DF3)

// maxBaseHint caps the stored base path hint.
const maxBaseHint = 4096

// RelativeHeader is the container metadata readable without the base
// index (see SniffRelative). Servers use it to locate and share the
// base before parsing the delta payload.
type RelativeHeader struct {
	BasePath        string            // path hint recorded at save time; may be empty
	BaseFingerprint [sha256.Size]byte // sha256 of the base's BWT
	BaseLen         int               // base target length in bases
	Len             int               // tenant target length in bases
}

// Save serializes the relative index as a delta container. The base is
// NOT written — only its fingerprint, length, and an optional path
// hint — so the container stays O(diff) on disk too.
func (x *RelativeIndex) Save(w io.Writer) error {
	hint := []byte(x.basePath)
	if len(hint) > maxBaseHint {
		return fmt.Errorf("%w: base path hint %d bytes (max %d)", ErrInput, len(hint), maxBaseHint)
	}
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, relativeMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hint))); err != nil {
		return err
	}
	if _, err := bw.Write(hint); err != nil {
		return err
	}
	if _, err := bw.Write(x.baseFP[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(x.base.Len())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(x.Len())); err != nil {
		return err
	}
	if err := writeRefTable(bw, x.refs); err != nil {
		return err
	}
	if _, err := x.searcher.Index().WriteRelativeTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile saves the relative container to a file.
func (x *RelativeIndex) SaveFile(path string) error {
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

// readRelativeHeader parses everything before the ref table. Errors
// wrap ErrFormat.
func readRelativeHeader(br *bufio.Reader) (RelativeHeader, error) {
	var hdr RelativeHeader
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return hdr, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if magic != relativeMagic {
		return hdr, fmt.Errorf("%w: magic %#x", ErrFormat, magic)
	}
	var hintLen uint32
	if err := binary.Read(br, binary.LittleEndian, &hintLen); err != nil || hintLen > maxBaseHint {
		return hdr, fmt.Errorf("%w: base path hint", ErrFormat)
	}
	hint := make([]byte, hintLen)
	if _, err := io.ReadFull(br, hint); err != nil {
		return hdr, fmt.Errorf("%w: base path hint: %v", ErrFormat, err)
	}
	if _, err := io.ReadFull(br, hdr.BaseFingerprint[:]); err != nil {
		return hdr, fmt.Errorf("%w: base fingerprint: %v", ErrFormat, err)
	}
	var baseN, n uint64
	if err := binary.Read(br, binary.LittleEndian, &baseN); err != nil {
		return hdr, fmt.Errorf("%w: base length: %v", ErrFormat, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return hdr, fmt.Errorf("%w: target length: %v", ErrFormat, err)
	}
	const maxLen = 1 << 34
	if baseN == 0 || baseN > maxLen || n == 0 || n > maxLen {
		return hdr, fmt.Errorf("%w: base %d bases, target %d bases", ErrFormat, baseN, n)
	}
	hdr.BasePath = string(hint)
	hdr.BaseLen = int(baseN)
	hdr.Len = int(n)
	return hdr, nil
}

// SniffRelative reports whether path holds a relative container and, if
// so, its header. ok is false (with a nil error) for any other readable
// file; errors are reserved for I/O failures and corrupt relative
// headers.
func SniffRelative(path string) (hdr RelativeHeader, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return RelativeHeader{}, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	peek, err := br.Peek(4)
	if err != nil || binary.LittleEndian.Uint32(peek) != relativeMagic {
		return RelativeHeader{}, false, nil
	}
	hdr, err = readRelativeHeader(br)
	if err != nil {
		return RelativeHeader{}, false, err
	}
	return hdr, true, nil
}

// LoadRelative deserializes a relative container against its base
// index. The base must match the fingerprint recorded at save time;
// a mismatch wraps ErrFormat.
func LoadRelative(r io.Reader, base *Index) (*RelativeIndex, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil base index", ErrInput)
	}
	baseFm := base.searcher.Index()
	if baseFm.IsRelative() {
		return nil, fmt.Errorf("%w: base index is itself relative", ErrInput)
	}
	br := bufio.NewReader(r)
	hdr, err := readRelativeHeader(br)
	if err != nil {
		return nil, err
	}
	if hdr.BaseLen != base.Len() {
		return nil, fmt.Errorf("%w: container expects a %d-base base, got %d bases",
			ErrFormat, hdr.BaseLen, base.Len())
	}
	fp := baseFm.Fingerprint()
	if !bytes.Equal(fp[:], hdr.BaseFingerprint[:]) {
		return nil, fmt.Errorf("%w: base fingerprint mismatch (container %x…, base %x…)",
			ErrFormat, hdr.BaseFingerprint[:4], fp[:4])
	}
	refs, err := readRefTable(br, uint64(hdr.Len))
	if err != nil {
		return nil, err
	}
	relFm, err := fmindex.ReadRelativeIndex(br, baseFm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if relFm.N() != hdr.Len {
		return nil, fmt.Errorf("%w: header says %d bases but delta is over %d", ErrFormat, hdr.Len, relFm.N())
	}
	return &RelativeIndex{
		Index:    tenantIndex(relFm, refs),
		base:     base,
		baseFP:   hdr.BaseFingerprint,
		basePath: hdr.BasePath,
	}, nil
}

// LoadRelativeFile loads a relative container from a file. When base is
// nil the container's path hint is resolved — first as given, then
// relative to the container's directory — and the base index is loaded
// from there, with every check Load makes, and kept BaseOnly: its text
// and Locate samples are dropped, and Base() refuses searches and
// saves. Pass a base to share one in-memory copy across tenants; a
// supplied base is kept as it is.
func LoadRelativeFile(path string, base *Index) (*RelativeIndex, error) {
	if base == nil {
		hdr, ok, err := SniffRelative(path)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s is not a relative container", ErrFormat, path)
		}
		base, err = loadHintedBase(path, hdr.BasePath)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadRelative(f, base)
}

// loadHintedBase resolves a container's base path hint, loads the base
// index and keeps only what the tenant's rank queries read of it.
func loadHintedBase(containerPath, hint string) (*Index, error) {
	if hint == "" {
		return nil, fmt.Errorf("%w: relative container %s has no base path hint; load the base and pass it explicitly",
			ErrInput, containerPath)
	}
	candidates := []string{hint}
	if !filepath.IsAbs(hint) {
		candidates = append(candidates, filepath.Join(filepath.Dir(containerPath), hint))
	}
	var firstErr error
	for _, c := range candidates {
		base, err := LoadFile(c)
		if err == nil {
			return base.BaseOnly(), nil
		}
		// A candidate that exists and fails to load is the error to
		// report, not a missing one tried before it.
		if firstErr == nil || errors.Is(firstErr, fs.ErrNotExist) {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("bwtmatch: loading base %q for %s: %w", hint, containerPath, firstErr)
}
