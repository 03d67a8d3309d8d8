// Package badboundedalloc violates the boundedalloc rule: allocations
// sized by values read from untrusted input without a dominating
// length-cap check.
package badboundedalloc

import (
	"encoding/binary"
	"io"

	"bwtmatch/internal/binio"
)

const maxLen = 1 << 20

// unguarded allocates whatever the header claims — the alloc bomb.
func unguarded(r io.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	buf := make([]byte, n) // want boundedalloc
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// propagated: taint flows through the byte-order helper and the int
// conversion into the size expression.
func propagated(data []byte) []uint64 {
	raw := binary.LittleEndian.Uint64(data)
	count := int(raw)
	return make([]uint64, count) // want boundedalloc
}

// instantiated: an explicitly instantiated binio.ReadSlice is a sink
// like the plain call.
func instantiated(r io.Reader) ([]uint64, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	return binio.ReadSlice[uint64](r, n) // want boundedalloc
}

// guarded is compliant: the reject-form cap dominates the allocation.
func guarded(r io.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// clamped is compliant: the clamp form of the guard also counts.
func clamped(data []byte) []uint64 {
	c := int(binary.LittleEndian.Uint32(data))
	if c > maxLen {
		c = maxLen
	}
	return make([]uint64, c)
}

// fixedSize is compliant: the size never came from input.
func fixedSize() []byte {
	return make([]byte, 64)
}

// derivedLen is compliant: len() of tainted data measures a slice that
// was already allocated under its own cap check, so an allocation
// proportional to it cannot outgrow what the decode admitted.
func derivedLen(r io.Reader) ([]uint64, error) {
	frames, err := readFrames(r)
	if err != nil {
		return nil, err
	}
	return make([]uint64, len(frames)), nil
}

func readFrames(r io.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r, buf)
	return buf, err
}
