package bwtmatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"bwtmatch/internal/shard"
)

// shardedMagic opens the multi-shard container format, v1:
//
//	magic (uint32) | manifest (internal/shard) |
//	per shard, in span order: payload length (uint64) | payload
//
// Each payload is one complete monolithic index in the Save format
// (with an empty reference table — references live once, in the
// manifest). The length prefixes let LoadSharded index the payloads
// without reading them, so shards materialize lazily on first search.
const shardedMagic = uint32(0xB3711DF2)

// Save serializes the sharded index: the manifest, then every shard's
// payload. Lazily loaded shards that have not materialized yet are
// forced, so saving a just-loaded index round-trips the whole file.
func (x *ShardedIndex) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, shardedMagic); err != nil {
		return err
	}
	if _, err := x.man.WriteTo(bw); err != nil {
		return err
	}
	// One shard payload is buffered at a time: the uint64 length prefix
	// needs the encoded size before the bytes.
	var blob bytes.Buffer
	for i := range x.shards {
		idx, err := x.shards[i].get()
		if err != nil {
			return fmt.Errorf("%w: shard %d: %v", ErrFormat, i, err)
		}
		blob.Reset()
		if err := idx.Save(&blob); err != nil {
			return fmt.Errorf("bwtmatch: saving shard %d: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(blob.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(blob.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile saves the sharded index to a file.
func (x *ShardedIndex) SaveFile(path string) error {
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

// shardFrame locates one shard's payload inside a sharded container:
// off is the first payload byte (the uint64 length prefix sits at
// off-8) and len the payload length.
type shardFrame struct {
	off, len int64
}

// shardedTOC is the eagerly readable part of a sharded container: the
// manifest plus the location of every payload frame. It is what
// LoadSharded needs to defer payload decodes, and what OpenAppend needs
// to copy unchanged frames without decoding them.
type shardedTOC struct {
	man    shard.Manifest
	frames []shardFrame
}

// readShardedTOC reads the container magic, the manifest, and the
// payload length prefixes, validating that the frames exactly tile the
// rest of the file. Every rejection wraps ErrFormat.
func readShardedTOC(ra io.ReaderAt, size int64) (shardedTOC, error) {
	var toc shardedTOC
	header := make([]byte, 4)
	if _, err := ra.ReadAt(header, 0); err != nil {
		return toc, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if magic := binary.LittleEndian.Uint32(header); magic != shardedMagic {
		return toc, fmt.Errorf("%w: magic %#x", ErrFormat, magic)
	}
	man, err := shard.ReadManifest(bufio.NewReader(io.NewSectionReader(ra, 4, size-4)))
	if err != nil {
		return toc, fmt.Errorf("%w: manifest: %v", ErrFormat, err)
	}
	// The bufio reader above reads ahead, so it cannot report where the
	// manifest ended; the encoding is deterministic, so re-encoding to
	// io.Discard recovers the exact payload offset.
	manLen, err := man.WriteTo(io.Discard)
	if err != nil {
		return toc, fmt.Errorf("%w: manifest: %v", ErrFormat, err)
	}

	// ReadManifest already caps the span count, but this is the
	// allocation site — re-check against the exported cap so the bound
	// is visible (and machine-checkable) where the memory is committed.
	nShards := man.Plan.Count()
	if nShards > shard.MaxShards {
		return toc, fmt.Errorf("%w: manifest declares %d shards (cap %d)", ErrFormat, nShards, shard.MaxShards)
	}
	toc.man = man
	toc.frames = make([]shardFrame, nShards)
	offset := 4 + manLen
	lenBuf := make([]byte, 8)
	for i := range toc.frames {
		if offset+8 > size {
			return toc, fmt.Errorf("%w: shard %d: truncated before length prefix", ErrFormat, i)
		}
		if _, err := ra.ReadAt(lenBuf, offset); err != nil {
			return toc, fmt.Errorf("%w: shard %d length: %v", ErrFormat, i, err)
		}
		blobLen := int64(binary.LittleEndian.Uint64(lenBuf))
		if blobLen < 0 || blobLen > size-offset-8 {
			return toc, fmt.Errorf("%w: shard %d claims %d payload bytes with %d remaining",
				ErrFormat, i, blobLen, size-offset-8)
		}
		toc.frames[i] = shardFrame{off: offset + 8, len: blobLen}
		offset += 8 + blobLen
	}
	if offset != size {
		return toc, fmt.Errorf("%w: %d trailing bytes after last shard", ErrFormat, size-offset)
	}
	return toc, nil
}

// LoadSharded deserializes a sharded index written by Save, reading
// only the manifest and the payload length prefixes eagerly: each
// shard's FM-index materializes on first search. ra must stay readable
// for the life of the index (LoadShardedFile manages that; callers
// passing their own ReaderAt manage it themselves).
func LoadSharded(ra io.ReaderAt, size int64) (*ShardedIndex, error) {
	toc, err := readShardedTOC(ra, size)
	if err != nil {
		return nil, err
	}
	man := toc.man
	x := &ShardedIndex{
		man:      man,
		refs:     refsFromShard(man.Refs),
		shards:   make([]lazyShard, len(toc.frames)),
		counters: make([]shardCounter, len(toc.frames)),
	}
	for i := range x.shards {
		fr := toc.frames[i]
		span := man.Plan.Spans[i]
		ls := &x.shards[i]
		ls.span = span
		ls.bytes.Store(fr.len)
		ls.load = func() (*Index, error) {
			idx, err := Load(io.NewSectionReader(ra, fr.off, fr.len))
			if err != nil {
				return nil, fmt.Errorf("%w: shard payload: %v", ErrFormat, err)
			}
			if idx.Len() != span.Len() {
				return nil, fmt.Errorf("%w: shard payload holds %d bases for span [%d,%d)",
					ErrFormat, idx.Len(), span.Start, span.End)
			}
			if len(idx.Refs()) != 0 {
				return nil, fmt.Errorf("%w: shard payload carries its own reference table", ErrFormat)
			}
			return idx, nil
		}
	}
	return x, nil
}

// LoadShardedFile opens a sharded index file for lazy loading; the file
// stays open until Close.
func LoadShardedFile(path string) (*ShardedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	x, err := LoadSharded(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	x.closer = f
	return x, nil
}

// LoadAll forces every lazily deferred shard to materialize, so later
// searches never touch the backing file (and corruption anywhere in the
// file surfaces now, as ErrFormat).
func (x *ShardedIndex) LoadAll() error {
	return x.LoadAllContext(context.Background())
}

// LoadAllContext is LoadAll bounded by ctx: materialization stops
// between shards once ctx is done (a shard decode in progress runs to
// completion — decodes are not interruptible). Server warm-up paths use
// this so a shutdown cancels pending warms instead of stranding them.
func (x *ShardedIndex) LoadAllContext(ctx context.Context) error {
	for i := range x.shards {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bwtmatch: load all: %w", err)
		}
		if _, err := x.shards[i].get(); err != nil {
			return fmt.Errorf("%w: shard %d: %v", ErrFormat, i, err)
		}
	}
	return nil
}

// LoadAnyFile loads an index file of any layout, dispatching on the
// container magic: monolithic Save files yield an *Index, sharded Save
// files a lazily loaded *ShardedIndex, and relative containers a
// *RelativeIndex (resolving the base from the stored path hint).
// Callers that hold the result for long should Close a ShardedIndex
// when done (Matcher itself has no Close; type-assert io.Closer).
func LoadAnyFile(path string) (Matcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	header := make([]byte, 4)
	if _, err := io.ReadFull(f, header); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	switch binary.LittleEndian.Uint32(header) {
	case fileMagic:
		defer f.Close()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		idx, err := Load(f)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		return idx, nil
	case shardedMagic:
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		x, err := LoadSharded(f, st.Size())
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		x.closer = f
		return x, nil
	case relativeMagic:
		// Resolve the base from the container's path hint. Callers that
		// want to share one base across tenants (the server registry)
		// should Sniff + LoadRelativeFile with an explicit base instead.
		f.Close()
		rx, err := LoadRelativeFile(path, nil)
		if err != nil {
			return nil, fmt.Errorf("relative container %s: %w", path, err)
		}
		return rx, nil
	default:
		f.Close()
		return nil, fmt.Errorf("%w: magic %#x", ErrFormat, binary.LittleEndian.Uint32(header))
	}
}

func refsFromShard(refs []shard.Ref) []Ref {
	if len(refs) == 0 {
		return nil
	}
	out := make([]Ref, len(refs))
	for i, r := range refs {
		out[i] = Ref{Name: r.Name, Start: r.Start, Len: r.Len}
	}
	return out
}
