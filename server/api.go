// Package server implements kmserved, a long-running HTTP daemon that
// serves k-mismatch searches over a registry of saved bwtmatch indexes.
//
// The daemon amortizes index construction exactly as the paper's design
// intends: a genome is indexed once (bwtmatch.Save), registered under a
// name, and then queried concurrently by many clients. Endpoints:
//
//	POST /v1/search    single read or batch, JSON in/out
//	GET  /v1/indexes   list registered indexes
//	POST /v1/indexes   load a saved .bwt file under a name
//	DELETE /v1/indexes/{name}  evict an index
//	GET  /healthz      liveness (503 while draining)
//	GET  /readyz       readiness (503 while draining or warming shards)
//	GET  /metrics      Prometheus text exposition (/metrics.json for JSON)
package server

import (
	"fmt"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

// Wire headers for cross-process request correlation. Both kmserved and
// the cluster coordinator read them, generate the ID server-side when
// absent, and echo X-Km-Request-Id on every response — success, error
// and 503-shed alike — so a client always has a handle to grep server
// logs and the flight recorder with.
const (
	// HeaderRequestID carries the request ID end to end: client →
	// coordinator → worker. Generated by the first hop that sees it
	// missing.
	HeaderRequestID = "X-Km-Request-Id"
	// HeaderTrace ("1") asks the server to record span fragments for
	// this request. A coordinator that samples a request sets it on
	// every worker RPC of the fan-out, so one sampling decision yields
	// one complete cross-process timeline.
	HeaderTrace = "X-Km-Trace"
)

// TraceHeaderSet reports whether an X-Km-Trace header value requests
// tracing ("1" or "true"; anything else, including empty, does not).
func TraceHeaderSet(v string) bool { return v == "1" || v == "true" }

// SearchRequest is the body of POST /v1/search. Exactly one of Seq
// (single-read shorthand) or Reads must be set.
type SearchRequest struct {
	// Index names the registered index to search.
	Index string `json:"index"`
	// K is the default mismatch budget for reads that do not set one.
	K int `json:"k"`
	// Method selects the matcher: a|bwt|stree|amir|cole|online|seed
	// (default "a", the paper's Algorithm A).
	Method string `json:"method,omitempty"`
	// Seq is the single-read shorthand: search one pattern.
	Seq string `json:"seq,omitempty"`
	// Reads is the batched form.
	Reads []Read `json:"reads,omitempty"`
	// TimeoutMS bounds the whole request; 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Shards restricts a sharded index search to the given shard
	// ordinals (strictly increasing): results carry only the matches
	// those shards own, in global position order. Empty means all
	// shards. This is the worker half of the cluster tier's routing
	// contract — a coordinator spreads disjoint shard subsets over
	// workers and concatenates the owned results. Rejected with 400 for
	// monolithic indexes.
	Shards []int `json:"shards,omitempty"`
}

// Read is one pattern inside a batched SearchRequest.
type Read struct {
	// ID is echoed back in the corresponding ReadResult (optional).
	ID string `json:"id,omitempty"`
	// Seq is the DNA pattern (acgtACGT; 'n'/'N' are sanitized to 'a').
	Seq string `json:"seq"`
	// K overrides the request-level mismatch budget when non-nil.
	K *int `json:"k,omitempty"`
}

// Match mirrors bwtmatch.Match on the wire.
type Match struct {
	Pos        int `json:"pos"`
	Mismatches int `json:"mismatches"`
}

// ReadResult is the outcome for one read of a batch.
type ReadResult struct {
	ID      string  `json:"id,omitempty"`
	Matches []Match `json:"matches"`
	// Error is the per-read failure (bad characters, cancelled); the rest
	// of the batch still completes.
	Error string `json:"error,omitempty"`
}

// SearchResponse is the body returned by POST /v1/search.
type SearchResponse struct {
	Index   string       `json:"index"`
	Method  string       `json:"method"`
	Results []ReadResult `json:"results"`
	// Reads, Matches and Errors summarize the batch.
	Reads     int     `json:"reads"`
	Matches   int     `json:"matches"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Partial reports that a cluster coordinator could not reach any
	// replica for some shard subset: per-read results are missing the
	// matches owned by FailedShards. Single-process kmserved never sets
	// it — a worker either answers its whole assigned subset or fails.
	Partial bool `json:"partial,omitempty"`
	// FailedShards lists the shard ordinals whose matches are missing
	// when Partial is set, sorted ascending.
	FailedShards []int `json:"failed_shards,omitempty"`
	// RequestID echoes the X-Km-Request-Id the batch ran under (also
	// sent as a response header), so responses logged or stored by the
	// client stay correlatable with server logs and flight recorders.
	RequestID string `json:"request_id,omitempty"`
	// Trace carries span fragments when the request was sampled
	// (X-Km-Trace): a worker returns exactly one fragment for its own
	// process; a coordinator returns its own fragment first, followed by
	// the relabelled fragments of every worker that answered. See
	// DESIGN.md §7 "Distributed tracing" for the wire contract.
	Trace []obs.Fragment `json:"trace,omitempty"`
}

// RegisterRequest is the body of POST /v1/indexes.
type RegisterRequest struct {
	// Name registers the index under this key.
	Name string `json:"name"`
	// Path is a server-side file written by bwtmatch.Save / kmsearch -save.
	Path string `json:"path"`
}

// IndexInfo describes one registered index.
type IndexInfo struct {
	Name      string `json:"name"`
	Bases     int    `json:"bases"`
	SizeBytes int    `json:"size_bytes"`
	Refs      int    `json:"refs"`
	// Shards is the shard count for a sharded index, 0 for monolithic.
	Shards int `json:"shards,omitempty"`
	// ShardBytes lists each shard's serialized (or resident) byte size,
	// in shard order; nil for monolithic indexes.
	ShardBytes []int64 `json:"shard_bytes,omitempty"`
	// Base identifies the shared base of a relative tenant (the short
	// fingerprint also used in km_relative_* metric labels); empty for
	// standalone indexes.
	Base string `json:"base,omitempty"`
	// DeltaBytes is a relative tenant's own resident cost — delta
	// structures plus Locate samples; the base is accounted once, in
	// SharedBaseBytes of every tenant that shares it.
	DeltaBytes int64 `json:"delta_bytes,omitempty"`
	// SharedBaseBytes is the resident size of the shared base index a
	// relative tenant searches through (repeated on each tenant, charged
	// once in ResidentBytes).
	SharedBaseBytes int64 `json:"shared_base_bytes,omitempty"`
	// Queries counts searches served from this index since registration.
	Queries int64 `json:"queries"`
}

// IndexListResponse is the body of GET /v1/indexes.
type IndexListResponse struct {
	Indexes []IndexInfo `json:"indexes"`
	// BudgetBytes and ResidentBytes describe the registry's LRU byte
	// budget (0 budget means unlimited).
	BudgetBytes   int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the X-Km-Request-Id when the failing endpoint
	// had one (search and shed paths always do), so even a rejected
	// request leaves the client a correlation handle.
	RequestID string `json:"request_id,omitempty"`
}

// methodNames maps wire names to matchers: the one table behind the
// search API, the /metrics method labels and kmsearch -method.
var methodNames = map[string]bwtmatch.Method{
	"":       bwtmatch.AlgorithmA,
	"a":      bwtmatch.AlgorithmA,
	"bwt":    bwtmatch.BWTBaseline,
	"stree":  bwtmatch.STree,
	"amir":   bwtmatch.Amir,
	"cole":   bwtmatch.Cole,
	"online": bwtmatch.Online,
	"seed":   bwtmatch.Seed,
}

// ParseMethod resolves a wire method name ("" means Algorithm A).
func ParseMethod(name string) (bwtmatch.Method, error) {
	m, ok := methodNames[name]
	if !ok {
		return 0, fmt.Errorf("unknown method %q", name)
	}
	return m, nil
}

// MethodName is ParseMethod's inverse: the canonical wire token for a
// matcher ("a" for Algorithm A). The cluster coordinator uses it to
// forward and cache-key a canonical method name, so "a", "" and any
// future aliases coalesce. Method.String() is the human display name
// ("A()"), which is not valid on the wire.
func MethodName(m bwtmatch.Method) string {
	for name, mm := range methodNames {
		if mm == m && name != "" {
			return name
		}
	}
	return ""
}
