package bwtmatch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/shard"
)

// StreamBuilder constructs a sharded index file without ever holding
// the whole target in memory: callers feed DNA bytes incrementally with
// Write (grouping them into named references with StartRef), and every
// time a full shard's worth of text (shard size + overlap) accumulates,
// that shard's FM-index is built, serialized, and flushed; the buffer
// then slides forward keeping only the overlap. Peak memory is
// O(shard size + overlap) — one text window plus one shard's
// construction state — independent of the target length.
//
// The output bytes are identical to building the same target in memory
// with NewShardedRefs (same options) and calling SaveFile: payload
// frames spill to a temporary sibling file during the build, and Close
// assembles magic | manifest | frames into the final path via a rename,
// so a crash mid-build never leaves a partial container at the target
// path. The container format cannot know the manifest (which embeds the
// total length) until the end of the input, which is why the frames
// take the detour through the spill file.
//
// Streaming requires WithShardSize: the shard count of WithShards
// depends on the total length, which a stream does not know up front.
type StreamBuilder struct {
	cfg     config
	overlap int
	path    string

	spill     *os.File
	spillPath string
	blob      bytes.Buffer // reused per-shard serialization buffer

	buf   []byte // rank-encoded window; buf[0] is global position start
	start int    // global offset of buf[0]; always a multiple of shard size
	total int    // ranks consumed so far == start + len(buf)

	spans   []shard.Span // spans flushed (or carried over by OpenAppend)
	refs    []Ref        // closed references
	pending Ref          // open reference (Len fixed at next StartRef/Close)
	hasRef  bool

	// appended counts payload frames copied verbatim from an existing
	// container by OpenAppend; zero for fresh builds.
	appended int

	err    error // sticky: the first failure poisons the builder
	closed bool
}

// NewStreamBuilder starts a streaming build of a sharded index at path.
// Options are those of NewShardedRefs; WithShardSize is mandatory (see
// the type comment) and WithShards is rejected. Nothing is written to
// path until Close succeeds.
func NewStreamBuilder(path string, opts ...Option) (*StreamBuilder, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shardSize < 1 {
		return nil, fmt.Errorf("%w: streaming build requires WithShardSize", ErrInput)
	}
	if cfg.maxPatternLen < 1 {
		return nil, fmt.Errorf("%w: max pattern length %d", ErrInput, cfg.maxPatternLen)
	}
	return newStreamBuilder(path, cfg)
}

func newStreamBuilder(path string, cfg config) (*StreamBuilder, error) {
	spill, err := os.CreateTemp(filepath.Dir(path), ".kmstream-spill-*")
	if err != nil {
		return nil, err
	}
	return &StreamBuilder{
		cfg:       cfg,
		overlap:   cfg.maxPatternLen - 1,
		path:      path,
		spill:     spill,
		spillPath: spill.Name(),
	}, nil
}

// StartRef begins a named reference at the current position, ending the
// previous one (references partition the input in order, exactly like
// the NewShardedRefs table). Inputs that never call StartRef build a
// single-sequence index with no reference table. An empty name gets the
// same ref<ordinal> placeholder NewShardedRefs assigns.
func (b *StreamBuilder) StartRef(name string) {
	if b.err != nil || b.closed {
		return
	}
	if err := b.closePendingRef(); err != nil {
		b.err = err
		return
	}
	if name == "" {
		name = fmt.Sprintf("ref%d", len(b.refs))
	}
	b.pending = Ref{Name: name, Start: b.total}
	b.hasRef = true
}

// closePendingRef finalizes the open reference at the current position.
func (b *StreamBuilder) closePendingRef() error {
	if !b.hasRef {
		return nil
	}
	b.pending.Len = b.total - b.pending.Start
	if b.pending.Len == 0 {
		return fmt.Errorf("%w: reference %q is empty", ErrInput, b.pending.Name)
	}
	b.refs = append(b.refs, b.pending)
	b.hasRef = false
	return nil
}

// Write feeds DNA bytes (acgtACGT; see Sanitize for dirty inputs) into
// the build, flushing completed shards as they fill. It implements
// io.Writer; the error, once non-nil, is sticky and also returned by
// Close.
func (b *StreamBuilder) Write(seq []byte) (int, error) {
	if b.closed {
		return 0, fmt.Errorf("%w: write after Close", ErrInput)
	}
	if b.err != nil {
		return 0, b.err
	}
	buf, err := alphabet.AppendEncode(b.buf, seq)
	b.buf = buf
	if err != nil {
		b.err = fmt.Errorf("%w: %v", ErrInput, err)
		// AppendEncode appends nothing on error; the window is unchanged.
		b.buf = b.buf[:b.total-b.start]
		return 0, b.err
	}
	b.total += len(seq)
	full := b.cfg.shardSize + b.overlap
	for len(b.buf) >= full {
		if err := b.flushShard(b.buf[:full]); err != nil {
			b.err = err
			return 0, err
		}
		// Slide the window: the next shard starts shardSize later and
		// re-indexes the overlap tail.
		n := copy(b.buf, b.buf[b.cfg.shardSize:])
		b.buf = b.buf[:n]
		b.start += b.cfg.shardSize
	}
	return len(seq), nil
}

// flushShard builds the FM-index over one shard's rank-encoded window
// ([b.start, b.start+len(ranks)) in global coordinates) and appends its
// length-prefixed payload frame to the spill file.
func (b *StreamBuilder) flushShard(ranks []byte) error {
	span := shard.Span{Start: b.start, End: b.start + len(ranks)}
	idx, err := newIndex(ranks, b.cfg.fm)
	if err != nil {
		return fmt.Errorf("bwtmatch: building shard %d: %w", len(b.spans), err)
	}
	b.blob.Reset()
	if err := idx.Save(&b.blob); err != nil {
		return fmt.Errorf("bwtmatch: saving shard %d: %w", len(b.spans), err)
	}
	if err := binary.Write(b.spill, binary.LittleEndian, uint64(b.blob.Len())); err != nil {
		return err
	}
	if _, err := b.spill.Write(b.blob.Bytes()); err != nil {
		return err
	}
	b.spans = append(b.spans, span)
	return nil
}

// Close flushes the trailing shards, writes the manifest, and assembles
// the final container at the builder's path (atomically, via a rename
// within the same directory). A builder whose Write failed cleans up
// its temporary files and returns that first error.
func (b *StreamBuilder) Close() (err error) {
	if b.closed {
		return fmt.Errorf("%w: builder already closed", ErrInput)
	}
	b.closed = true
	defer func() {
		// The spill file is consumed (or abandoned) either way.
		if cerr := b.spill.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := os.Remove(b.spillPath); rerr != nil && err == nil {
			err = rerr
		}
	}()
	if b.err != nil {
		return b.err
	}
	if b.total == 0 {
		return fmt.Errorf("%w: empty target", ErrInput)
	}
	if err := b.closePendingRef(); err != nil {
		return err
	}
	// Every remaining span is cut short by the end of input: Write
	// drained all full-extent windows, so len(buf) < shardSize+overlap
	// and each trailing shard spans [start, total).
	for len(b.buf) > 0 {
		if err := b.flushShard(b.buf); err != nil {
			return err
		}
		if len(b.buf) > b.cfg.shardSize {
			b.buf = b.buf[b.cfg.shardSize:]
			b.start += b.cfg.shardSize
		} else {
			b.buf = nil
			b.start = b.total
		}
	}

	plan, err := shard.New(b.total, b.cfg.shardSize, b.overlap)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInput, err)
	}
	// The incremental emission above must land exactly on the plan the
	// loader will recompute; a mismatch means a builder bug, caught here
	// rather than at load time.
	if len(plan.Spans) != len(b.spans) {
		return fmt.Errorf("bwtmatch: streaming build emitted %d shards, plan wants %d", len(b.spans), len(plan.Spans))
	}
	for i, sp := range b.spans {
		if sp != plan.Spans[i] {
			return fmt.Errorf("bwtmatch: streaming shard %d spans [%d,%d), plan wants [%d,%d)",
				i, sp.Start, sp.End, plan.Spans[i].Start, plan.Spans[i].End)
		}
	}
	man := shard.Manifest{MaxPatternLen: b.cfg.maxPatternLen, Plan: plan, Refs: refsToShard(b.refs)}
	if err := man.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInput, err)
	}
	return b.assemble(man)
}

// assemble writes magic | manifest | spilled frames to a temporary file
// next to the target path and renames it into place.
func (b *StreamBuilder) assemble(man shard.Manifest) (err error) {
	out, err := os.CreateTemp(filepath.Dir(b.path), ".kmstream-out-*")
	if err != nil {
		return err
	}
	outPath := out.Name()
	defer func() {
		if err != nil {
			out.Close()        // assembly already failed; that error is the one to report
			os.Remove(outPath) // best-effort cleanup of the abandoned temp file
		}
	}()
	if err := binary.Write(out, binary.LittleEndian, shardedMagic); err != nil {
		return err
	}
	if _, err := man.WriteTo(out); err != nil {
		return err
	}
	if _, err := b.spill.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.Copy(out, b.spill); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	return os.Rename(outPath, b.path)
}

// Abort abandons the build, removing the temporary spill file; the
// target path is untouched. Safe after a failed Write; a no-op after
// Close.
func (b *StreamBuilder) Abort() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if err := b.spill.Close(); err != nil {
		os.Remove(b.spillPath) // best-effort cleanup; the close error is reported
		return err
	}
	return os.Remove(b.spillPath)
}

// Shards returns how many shard payloads have been flushed so far
// (including frames carried over by OpenAppend).
func (b *StreamBuilder) Shards() int { return len(b.spans) }

// Appended returns how many payload frames OpenAppend carried over
// verbatim from the pre-existing container (zero for fresh builds):
// the shards whose spans an append provably cannot change.
func (b *StreamBuilder) Appended() int { return b.appended }

// Len returns the number of target bytes consumed so far (including
// the pre-existing target of an OpenAppend).
func (b *StreamBuilder) Len() int { return b.total }

// OpenAppend resumes a streaming build on an existing sharded container:
// subsequent Writes extend the target, and Close rewrites the container
// with the grown manifest. Geometry options must agree with the
// manifest — WithShardSize and WithMaxPatternLen may be omitted (the
// manifest's values apply) but, when given, must match exactly;
// WithShards is rejected. The existing reference table is carried over;
// new bytes form new references via StartRef as usual.
//
// Only the trailing shards whose spans are cut short by the old end of
// input are rebuilt — every shard already at full extent
// (shardSize+overlap bytes) keeps its span under any longer target, so
// its payload frame is copied into the new container byte for byte,
// without being decoded. The earliest rebuilt shard's stored text seeds
// the streaming window, so an append reads O(shard size + overlap)
// bytes of the old container's text no matter how large the index is.
// The result is byte-identical to a from-scratch streaming build of the
// full target with the same options.
//
// Close assembles the new container beside path and renames it into
// place, so a crash mid-append leaves the original index intact.
func OpenAppend(path string, opts ...Option) (*StreamBuilder, error) {
	cfg := defaultConfig()
	// Zero the geometry defaults so "option not given" is
	// distinguishable from an explicit value: append adopts the
	// manifest's geometry unless the caller insists.
	cfg.maxPatternLen = 0
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shardCount != 0 {
		return nil, fmt.Errorf("%w: append derives the shard count from the manifest (WithShards is not applicable)", ErrInput)
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only handle; everything needed is copied out before return
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	toc, err := readShardedTOC(f, st.Size())
	if err != nil {
		return nil, err
	}
	man := toc.man
	if cfg.shardSize != 0 && cfg.shardSize != man.Plan.ShardSize {
		return nil, fmt.Errorf("%w: shard size %d does not match the container's %d",
			ErrInput, cfg.shardSize, man.Plan.ShardSize)
	}
	if cfg.maxPatternLen != 0 && cfg.maxPatternLen != man.MaxPatternLen {
		return nil, fmt.Errorf("%w: max pattern length %d does not match the container's %d (the overlap is fixed at build time)",
			ErrInput, cfg.maxPatternLen, man.MaxPatternLen)
	}
	cfg.shardSize = man.Plan.ShardSize
	cfg.maxPatternLen = man.MaxPatternLen

	b, err := newStreamBuilder(path, cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*StreamBuilder, error) {
		b.Abort() // the original error is the one to report
		return nil, err
	}

	// Shards cut short by the old end of input grow when the target
	// grows; everything before the first such shard keeps its span
	// forever and is copied frame-for-frame, length prefix included.
	oldTotal := man.Plan.TotalLen
	full := man.Plan.ShardSize + man.Plan.Overlap
	cut := len(man.Plan.Spans)
	for i, sp := range man.Plan.Spans {
		if sp.Len() < full {
			cut = i
			break
		}
	}
	for i := 0; i < cut; i++ {
		fr := toc.frames[i]
		frame := io.NewSectionReader(f, fr.off-8, fr.len+8)
		if _, err := io.Copy(b.spill, frame); err != nil {
			return fail(fmt.Errorf("%w: copying shard %d: %v", ErrFormat, i, err))
		}
	}
	b.spans = append(b.spans, man.Plan.Spans[:cut]...)
	b.appended = cut

	// Seed the streaming window with the first rebuilt shard's stored
	// text: it covers [its start, oldTotal), exactly the old bytes any
	// grown tail shard can need.
	if cut < len(man.Plan.Spans) {
		sp := man.Plan.Spans[cut]
		fr := toc.frames[cut]
		idx, err := Load(io.NewSectionReader(f, fr.off, fr.len))
		if err != nil {
			return fail(fmt.Errorf("%w: shard %d payload: %v", ErrFormat, cut, err))
		}
		if idx.Len() != sp.Len() {
			return fail(fmt.Errorf("%w: shard %d payload holds %d bases for span [%d,%d)",
				ErrFormat, cut, idx.Len(), sp.Start, sp.End))
		}
		b.buf = idx.text.Slice(b.buf, 0, idx.Len())
		b.start = sp.Start
	} else {
		b.start = oldTotal
	}
	b.total = oldTotal
	b.refs = refsFromShard(man.Refs)
	return b, nil
}
