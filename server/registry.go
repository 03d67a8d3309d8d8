package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bwtmatch"
)

// ErrNotFound reports a search against an unregistered index name.
var ErrNotFound = errors.New("server: index not found")

// ErrExists reports a duplicate registration.
var ErrExists = errors.New("server: index already registered")

// entry is one registered index. Indexes are immutable, so an entry
// evicted from the registry stays valid for searches already holding it;
// the GC reclaims it when the last in-flight batch finishes. That is
// also why eviction never calls Close on a ShardedIndex: an in-flight
// batch may still materialize shards lazily from the backing file, so
// the file handle must outlive the registry entry (the finalizer-free
// design accepts the descriptor leak until the GC collects the index;
// kmserved registers long-lived indexes, so in practice none leak).
type entry struct {
	name  string
	idx   bwtmatch.Matcher
	bytes int64
	// baseKey, when hasBase is set, points at the shared base this
	// relative tenant retains; releasing the entry releases the base.
	baseKey [sha256.Size]byte
	hasBase bool
	// lastUsed orders entries for LRU eviction: a global sequence number
	// stamped on every Get, so lookups stay on the RLock fast path.
	lastUsed atomic.Int64
	queries  atomic.Int64
}

// baseEntry is one shared base index, keyed by BWT fingerprint and
// refcounted by its live tenants. Bases are not registry entries: they
// are never LRU-evicted directly (a base pinned by live tenants cannot
// disappear under them) and are freed exactly when the last tenant
// referencing them is evicted, removed, or replaced.
type baseEntry struct {
	idx     *bwtmatch.Index
	bytes   int64
	tenants int
}

// Registry is a named collection of loaded indexes with an LRU byte
// budget. Lookups take the read lock and bump an atomic recency stamp;
// only registration and eviction take the write lock.
type Registry struct {
	budget int64 // bytes; 0 = unlimited
	clock  atomic.Int64

	mu       sync.RWMutex
	entries  map[string]*entry
	bases    map[[sha256.Size]byte]*baseEntry
	resident int64

	// onEvict, when set, observes evictions (used for metrics).
	onEvict func(name string)
}

// NewRegistry creates a registry with the given byte budget (0 for
// unlimited). The budget counts what each index holds: its structures
// plus its packed text (Index.ResidentBytes) for a standalone index,
// the delta for a relative tenant, and once per shared base that base's
// ResidentBytes. A base that LoadFile resolves from a container's path
// hint is BaseOnly, so it is charged its 2-bit BWT and occ checkpoints
// alone; a base built in process and passed to Add is charged whole.
func NewRegistry(budget int64) *Registry {
	return &Registry{
		budget:  budget,
		entries: make(map[string]*entry),
		bases:   make(map[[sha256.Size]byte]*baseEntry),
	}
}

// indexBytes estimates the resident cost of one index. A standalone
// index is charged ResidentBytes, its structures plus its packed text,
// or, for a BaseOnly shared base, its 2-bit BWT and occ checkpoints.
// A sharded index's SizeBytes already sums each shard's ResidentBytes.
// A relative tenant is charged only its delta — the shared base is
// accounted once, in its baseEntry.
func indexBytes(idx bwtmatch.Matcher) int64 {
	switch x := idx.(type) {
	case *bwtmatch.Index:
		return int64(x.ResidentBytes())
	case *bwtmatch.RelativeIndex:
		return int64(x.DeltaBytes())
	}
	return int64(idx.SizeBytes())
}

// retainBaseLocked records a relative tenant's hold on its shared base,
// registering the base (and charging its bytes to resident) on first
// use. It returns the base key to stamp on the tenant's entry. Caller
// holds the write lock.
func (r *Registry) retainBaseLocked(rx *bwtmatch.RelativeIndex) [sha256.Size]byte {
	key := rx.BaseFingerprint()
	be, ok := r.bases[key]
	if !ok {
		be = &baseEntry{idx: rx.Base(), bytes: indexBytes(rx.Base())}
		r.bases[key] = be
		r.resident += be.bytes
	}
	be.tenants++
	return key
}

// releaseBaseLocked drops one tenant's hold on its base, freeing the
// base (and its resident bytes) when the last tenant goes. Caller holds
// the write lock.
func (r *Registry) releaseBaseLocked(e *entry) {
	if !e.hasBase {
		return
	}
	be, ok := r.bases[e.baseKey]
	if !ok {
		return
	}
	be.tenants--
	if be.tenants <= 0 {
		delete(r.bases, e.baseKey)
		r.resident -= be.bytes
	}
}

// SharedBase returns the in-memory base index matching fp, if some
// registered tenant already retains it. The registry's LoadFile uses it
// so N tenants of one base share a single copy.
func (r *Registry) SharedBase(fp [sha256.Size]byte) (*bwtmatch.Index, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	be, ok := r.bases[fp]
	if !ok {
		return nil, false
	}
	return be.idx, true
}

// Add registers idx under name, evicting least-recently-used entries if
// the budget would be exceeded. Registering an existing name fails with
// ErrExists (evict first to replace).
func (r *Registry) Add(name string, idx bwtmatch.Matcher) error {
	if name == "" {
		return fmt.Errorf("server: empty index name")
	}
	cost := indexBytes(idx)
	rx, isRel := idx.(*bwtmatch.RelativeIndex)
	full := cost
	if isRel {
		// A tenant whose base is not yet resident brings the base along;
		// the budget must admit both together.
		if _, shared := r.SharedBase(rx.BaseFingerprint()); !shared {
			full += indexBytes(rx.Base())
		}
	}
	if r.budget > 0 && full > r.budget {
		return fmt.Errorf("server: index %q (%d bytes) exceeds registry budget (%d bytes)", name, full, r.budget)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &entry{name: name, idx: idx, bytes: cost}
	if isRel {
		// Retain before evicting: the base now has a live hold, so
		// evicting sibling tenants to make room cannot free it.
		e.baseKey = r.retainBaseLocked(rx)
		e.hasBase = true
	}
	r.evictLocked(cost)
	e.lastUsed.Store(r.clock.Add(1))
	r.entries[name] = e
	r.resident += cost
	return nil
}

// evictLocked drops LRU entries until incoming more bytes fit the
// budget. Caller holds the write lock.
func (r *Registry) evictLocked(incoming int64) {
	if r.budget <= 0 {
		return
	}
	for r.resident+incoming > r.budget && len(r.entries) > 0 {
		var lru *entry
		for _, e := range r.entries {
			if lru == nil || e.lastUsed.Load() < lru.lastUsed.Load() {
				lru = e
			}
		}
		delete(r.entries, lru.name)
		r.resident -= lru.bytes
		r.releaseBaseLocked(lru)
		if r.onEvict != nil {
			r.onEvict(lru.name)
		}
	}
}

// loadShared loads a container of any layout, reusing an already
// resident base when a relative container's fingerprint matches one —
// the sharing that makes N tenants cost one base plus N deltas.
func (r *Registry) loadShared(path string) (bwtmatch.Matcher, error) {
	if hdr, ok, err := bwtmatch.SniffRelative(path); err == nil && ok {
		if base, shared := r.SharedBase(hdr.BaseFingerprint); shared {
			return bwtmatch.LoadRelativeFile(path, base)
		}
		return bwtmatch.LoadRelativeFile(path, nil)
	}
	return bwtmatch.LoadAnyFile(path)
}

// LoadFile reads a saved index from path — monolithic, sharded, or
// relative, the container magic decides — and registers it under name.
// Sharded indexes load lazily: registration reads only the manifest,
// and each shard materializes from the file on first search. Relative
// containers resolve their base from the stored path hint, or share an
// already registered tenant's base when the fingerprints match.
func (r *Registry) LoadFile(name, path string) (bwtmatch.Matcher, error) {
	idx, err := r.loadShared(path)
	if err != nil {
		// %w keeps bwtmatch.ErrFormat matchable while recording which
		// registration failed (kmvet: wrapformat).
		return nil, fmt.Errorf("server: loading index %q from %s: %w", name, path, err)
	}
	if err := r.Add(name, idx); err != nil {
		return nil, err
	}
	return idx, nil
}

// Replace swaps the index registered under name with idx, refreshing
// the LRU cost accounting — an appended container grows, so the
// entry's recorded bytes must grow with it or the budget drifts. The
// query counter carries over; recency is refreshed. A name not yet
// registered is added. The displaced index is not Closed, for the same
// reason eviction never Closes (see entry): in-flight batches may still
// hold it.
func (r *Registry) Replace(name string, idx bwtmatch.Matcher) error {
	if name == "" {
		return fmt.Errorf("server: empty index name")
	}
	cost := indexBytes(idx)
	if r.budget > 0 && cost > r.budget {
		return fmt.Errorf("server: index %q (%d bytes) exceeds registry budget (%d bytes)", name, cost, r.budget)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, existed := r.entries[name]
	if existed {
		delete(r.entries, name)
		r.resident -= old.bytes
	}
	e := &entry{name: name, idx: idx, bytes: cost}
	if rx, ok := idx.(*bwtmatch.RelativeIndex); ok {
		e.baseKey = r.retainBaseLocked(rx)
		e.hasBase = true
	}
	if existed {
		// Release the displaced entry's base only after retaining the
		// replacement's: a same-base swap keeps the base resident.
		r.releaseBaseLocked(old)
	}
	r.evictLocked(cost)
	if existed {
		e.queries.Store(old.queries.Load())
	}
	e.lastUsed.Store(r.clock.Add(1))
	r.entries[name] = e
	r.resident += cost
	return nil
}

// ReloadFile re-reads the container at path and swaps it in under name
// — the hot-reload path after `kmgen -append` grew a container on disk.
// Searches in flight keep the old index; new lookups see the new one.
func (r *Registry) ReloadFile(name, path string) (bwtmatch.Matcher, error) {
	idx, err := r.loadShared(path)
	if err != nil {
		// %w keeps bwtmatch.ErrFormat matchable while recording which
		// reload failed (kmvet: wrapformat).
		return nil, fmt.Errorf("server: reloading index %q from %s: %w", name, path, err)
	}
	if err := r.Replace(name, idx); err != nil {
		return nil, err
	}
	return idx, nil
}

// Get returns the index registered under name, refreshing its LRU
// recency, or ErrNotFound.
func (r *Registry) Get(name string) (bwtmatch.Matcher, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.lastUsed.Store(r.clock.Add(1))
	e.queries.Add(1)
	return e.idx, nil
}

// Remove evicts the named index; it reports whether it was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return false
	}
	delete(r.entries, name)
	r.resident -= e.bytes
	r.releaseBaseLocked(e)
	if r.onEvict != nil {
		r.onEvict(name)
	}
	return true
}

// List snapshots the registered indexes sorted by name.
func (r *Registry) List() []IndexInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]IndexInfo, 0, len(r.entries))
	for _, e := range r.entries {
		info := IndexInfo{
			Name:      e.name,
			Bases:     e.idx.Len(),
			SizeBytes: e.idx.SizeBytes(),
			Refs:      len(e.idx.Refs()),
			Queries:   e.queries.Load(),
		}
		if sx, ok := e.idx.(*bwtmatch.ShardedIndex); ok {
			shards := sx.ShardInfo()
			info.Shards = len(shards)
			info.ShardBytes = make([]int64, len(shards))
			for i, s := range shards {
				info.ShardBytes[i] = s.Bytes
			}
		}
		if rx, ok := e.idx.(*bwtmatch.RelativeIndex); ok {
			info.Base = baseID(e.baseKey)
			info.DeltaBytes = int64(rx.DeltaBytes())
			if be, ok := r.bases[e.baseKey]; ok {
				info.SharedBaseBytes = be.bytes
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// baseID renders a base fingerprint as the short stable identifier used
// in /v1/indexes and metric labels.
func baseID(fp [sha256.Size]byte) string { return fmt.Sprintf("%x", fp[:6]) }

// relBaseSeries is one shared base's telemetry snapshot for /metrics.
type relBaseSeries struct {
	base    string
	tenants int
	bytes   int64
}

// relTenantSeries is one relative tenant's telemetry snapshot.
type relTenantSeries struct {
	name        string
	base        string
	deltaBytes  int64
	baseHits    int64
	corrections int64
}

// relativeSnapshot collects the multi-tenant telemetry: one row per
// shared base (tenant count, resident bytes) and one per relative
// tenant (delta bytes, base-hit vs delta-correction read split), each
// sorted for stable exposition order.
func (r *Registry) relativeSnapshot() ([]relBaseSeries, []relTenantSeries) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bases := make([]relBaseSeries, 0, len(r.bases))
	for fp, be := range r.bases {
		bases = append(bases, relBaseSeries{base: baseID(fp), tenants: be.tenants, bytes: be.bytes})
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].base < bases[j].base })
	var tenants []relTenantSeries
	for _, e := range r.entries {
		rx, ok := e.idx.(*bwtmatch.RelativeIndex)
		if !ok {
			continue
		}
		hits, corr := rx.DeltaCounters()
		tenants = append(tenants, relTenantSeries{
			name:        e.name,
			base:        baseID(e.baseKey),
			deltaBytes:  int64(rx.DeltaBytes()),
			baseHits:    hits,
			corrections: corr,
		})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	return bases, tenants
}

// shardSeries is one sharded entry's telemetry snapshot for /metrics.
type shardSeries struct {
	name string
	info []bwtmatch.ShardInfo
}

// shardSnapshot collects per-shard telemetry for every registered
// sharded index, sorted by name. Monolithic entries are skipped.
func (r *Registry) shardSnapshot() []shardSeries {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []shardSeries
	for _, e := range r.entries {
		if sx, ok := e.idx.(*bwtmatch.ShardedIndex); ok {
			out = append(out, shardSeries{name: e.name, info: sx.ShardInfo()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Resident returns the current byte footprint of registered indexes.
func (r *Registry) Resident() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resident
}

// Budget returns the configured byte budget (0 = unlimited).
func (r *Registry) Budget() int64 { return r.budget }

// Len returns the number of registered indexes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
