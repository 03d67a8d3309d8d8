package bwtmatch

import (
	"crypto/sha256"
	"fmt"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/core"
	"bwtmatch/internal/fmindex"
)

// RelativeIndex is a tenant index stored as a delta against a shared
// base Index ("Reusing an FM-index", PAPERS.md): the tenant's BWT is
// aligned against the base's BWT, and rank queries are answered by one
// base rank query plus small exception-set corrections. Search results
// are byte-identical to a standalone build over the same target; the
// tenant-resident footprint is the delta plus Locate samples — O(diff)
// instead of O(n) — so a fleet of near-copy tenants shares one base
// payload. It satisfies Matcher through its embedded Index: the
// search primitive and everything built on it are inherited unchanged.
//
// The target text is not stored: the text-scanning baselines (Amir,
// Cole, Online, MEMs, wildcard, edit search) reconstruct it lazily
// from the delta-bridged BWT on first use.
type RelativeIndex struct {
	*Index
	base     *Index
	baseFP   [sha256.Size]byte
	basePath string
}

// relTenantSARate is the default Locate sampling rate of relative
// tenant builds. The delta layout pays rank bridging on every LF step,
// and the SA samples are among the dominant tenant-resident costs at
// low divergence; rate 64 keeps 8 tenants within a 2x single-index
// budget where the standalone default (16) would not. Locate pays up
// to 4x more LF steps per hit than standalone — WithSARate overrides
// when a tenant is Locate-heavy.
const relTenantSARate = 64

// NewRelative builds a relative index for a DNA target against base.
// The target is indexed standalone first (that build is discarded),
// then expressed as a delta; the more similar the target is to the
// base's, the smaller the result. Options apply to the tenant build;
// SARate defaults to relTenantSARate instead of the standalone
// default.
func NewRelative(base *Index, target []byte, opts ...Option) (*RelativeIndex, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil base index", ErrInput)
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("%w: empty target", ErrInput)
	}
	ranks, err := alphabet.Encode(target)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	cfg := defaultConfig()
	cfg.fm.SARate = relTenantSARate
	for _, o := range opts {
		o(&cfg)
	}
	searcher, err := core.NewSearcher(ranks, cfg.fm)
	if err != nil {
		return nil, err
	}
	return relativize(base, &Index{text: ranks, searcher: searcher}, nil)
}

// NewRelativeRefs is NewRelative over multiple named references (the
// relative sibling of NewRefs).
func NewRelativeRefs(base *Index, refs []Reference, opts ...Option) (*RelativeIndex, error) {
	cat, table, err := concatRefs(refs)
	if err != nil {
		return nil, err
	}
	rx, err := NewRelative(base, cat, opts...)
	if err != nil {
		return nil, err
	}
	rx.refs = table
	return rx, nil
}

// Relativize converts an existing standalone tenant index into a
// relative index against base. The tenant keeps its own Locate
// sampling rate. Search results over the returned index are
// byte-identical to tenant's.
func Relativize(base, tenant *Index) (*RelativeIndex, error) {
	if base == nil || tenant == nil {
		return nil, fmt.Errorf("%w: nil index", ErrInput)
	}
	return relativize(base, tenant, tenant.refs)
}

// relativize aligns tenant's FM-index against base's and wraps the
// relative fmindex in a fresh public Index with lazy text
// reconstruction (the tenant's resident text, if any, is not
// retained).
func relativize(base, tenant *Index, refs []Ref) (*RelativeIndex, error) {
	baseFm := base.searcher.Index()
	if baseFm.IsRelative() {
		return nil, fmt.Errorf("%w: base index is itself relative", ErrInput)
	}
	relFm, err := fmindex.MakeRelative(baseFm, tenant.searcher.Index())
	if err != nil {
		return nil, err
	}
	inner := &Index{
		searcher: core.NewSearcherFromIndex(relFm, tenant.Len()),
		refs:     refs,
	}
	inner.textFn = func() []byte { return reconstructTarget(relFm) }
	return &RelativeIndex{
		Index:  inner,
		base:   base,
		baseFP: baseFm.Fingerprint(),
	}, nil
}

// reconstructTarget rebuilds the forward rank-encoded target from an
// index built over its reverse. A verified index cannot fail the LF
// walk; a nil return only arises from memory corruption and surfaces
// as ErrInput in the text-path baselines.
func reconstructTarget(fm *fmindex.Index) []byte {
	rev, err := fm.ReconstructText()
	if err != nil {
		return nil
	}
	return alphabet.Reverse(rev)
}

// Base returns the shared base index.
func (x *RelativeIndex) Base() *Index { return x.base }

// BaseFingerprint returns the content hash of the base's BWT that the
// on-disk container binds to.
func (x *RelativeIndex) BaseFingerprint() [sha256.Size]byte { return x.baseFP }

// DeltaBytes returns the tenant-resident payload: the delta structures
// plus the tenant's own Locate samples. Equal to SizeBytes; the base
// is accounted once, by whoever holds it.
func (x *RelativeIndex) DeltaBytes() int { return x.SizeBytes() }

// DeltaCounters returns the cumulative BWT-read split: reads answered
// from the shared base versus reads answered from the insertion
// exception set (the km_relative_* base-hit vs delta-correction
// series).
func (x *RelativeIndex) DeltaCounters() (baseHits, deltaCorrections int64) {
	return x.searcher.Index().RelDelta().Reads()
}

// SetBasePath records the path hint written into the on-disk container
// so LoadRelativeFile can find the base without caller help. Relative
// hints are resolved against the container's directory.
func (x *RelativeIndex) SetBasePath(path string) { x.basePath = path }

// BasePath returns the recorded base path hint.
func (x *RelativeIndex) BasePath() string { return x.basePath }
