package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
	"bwtmatch/internal/obs"
)

// TenantSummary is the multi-tenant accounting block of a RunTenants
// report: how many bytes the fleet of tenant indexes costs under the
// chosen layout, against the budget of one standalone index. The
// headline number is BudgetRatio — the relative layout's claim is that
// N low-divergence tenants fit in under 2× a single index's bytes,
// where the mono layout pays ~N×.
type TenantSummary struct {
	// Mode is "mono" (one standalone index per tenant) or "relative"
	// (one shared base plus a delta per tenant).
	Mode string `json:"mode"`
	// Tenants is the fleet size; DivergencePct the per-tenant
	// substitution rate applied to the base genome (percent of bases).
	Tenants       int     `json:"tenants"`
	DivergencePct float64 `json:"divergence_pct"`
	// BaseBytes is the shared base index's resident size (relative mode
	// only; zero for mono). TenantBytes is each tenant's own cost: the
	// standalone index size in mono mode, the delta size in relative
	// mode. TotalBytes = BaseBytes + Σ TenantBytes.
	BaseBytes   int64   `json:"base_bytes"`
	TenantBytes []int64 `json:"tenant_bytes"`
	TotalBytes  int64   `json:"total_bytes"`
	// SingleIndexBytes is the budget yardstick: the size of one
	// standalone tenant index. BudgetRatio = TotalBytes/SingleIndexBytes.
	SingleIndexBytes int64   `json:"single_index_bytes"`
	BudgetRatio      float64 `json:"budget_ratio"`
	// Equivalent reports whether every probed search returned
	// byte-identical results between the relative tenant and a
	// standalone build of the same text (relative mode; trivially true
	// with zero probes in mono mode). EquivalenceProbes counts the
	// (tenant, read, k) combinations compared.
	Equivalent        bool `json:"equivalent"`
	EquivalenceProbes int  `json:"equivalence_probes"`
	// BuildNS is the wall time to build the whole fleet (base included
	// in relative mode).
	BuildNS int64 `json:"build_ns"`
}

// tenantProbeKs are the mismatch budgets the equivalence check sweeps.
var tenantProbeKs = []int{0, 1, 2, 3}

// RunTenants benchmarks the multi-tenant serving layouts: one base
// genome, `tenants` variants of it at divergencePct substitutions, each
// variant served either by its own standalone index (relative=false) or
// by a RelativeIndex delta against the shared base (relative=true). It
// writes one kmbench/v1 JSONReport to w whose cells (experiment
// "tenant-search") time the search grid through tenant 0's serving
// index, and whose Tenant block carries the byte accounting — so a
// mono/relative report pair is diffable with kmbenchdiff and the budget
// claim is auditable from the JSON alone.
//
// In relative mode every tenant is additionally built standalone and
// probed for result equivalence; the report's Tenant.Equivalent field
// is the AND over all probes.
func RunTenants(w io.Writer, cfg Config, tenants int, divergencePct float64, relative bool, rounds int, tr obs.Tracer) error {
	cfg.normalize()
	if rounds < 1 {
		rounds = 1
	}
	if tenants < 1 {
		tenants = 8
	}
	if divergencePct <= 0 {
		divergencePct = 1.0
	}
	spec := Specs(cfg.Scale)[0]
	g, err := spec.generate()
	if err != nil {
		return err
	}
	mode := "mono"
	if relative {
		mode = "relative"
	}
	sum := TenantSummary{Mode: mode, Tenants: tenants, DivergencePct: divergencePct}

	buildStart := time.Now()
	var base *bwtmatch.Index
	if relative {
		base, err = bwtmatch.New(alphabet.Decode(g))
		if err != nil {
			return err
		}
		sum.BaseBytes = int64(base.SizeBytes())
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7e4a))
	// Tenant genomes are derived in rank space so reads can be simulated
	// from them with the same wgsim model the other experiments use.
	tenantRanks := make([][]byte, tenants)
	serving := make([]bwtmatch.Matcher, tenants)
	standalone := make([]*bwtmatch.Index, tenants)
	for i := range tenantRanks {
		tg := mutateRanks(rng, g, divergencePct/100)
		tenantRanks[i] = tg
		text := alphabet.Decode(tg)
		if relative {
			rx, err := bwtmatch.NewRelative(base, text)
			if err != nil {
				return fmt.Errorf("bench: tenant %d relative build: %w", i, err)
			}
			serving[i] = rx
			sum.TenantBytes = append(sum.TenantBytes, int64(rx.DeltaBytes()))
		}
		std, err := bwtmatch.New(text)
		if err != nil {
			return fmt.Errorf("bench: tenant %d standalone build: %w", i, err)
		}
		standalone[i] = std
		if !relative {
			serving[i] = std
			sum.TenantBytes = append(sum.TenantBytes, int64(std.SizeBytes()))
		}
	}
	sum.BuildNS = time.Since(buildStart).Nanoseconds()
	sum.TotalBytes = sum.BaseBytes
	for _, b := range sum.TenantBytes {
		sum.TotalBytes += b
	}
	sum.SingleIndexBytes = int64(standalone[0].SizeBytes())
	if sum.SingleIndexBytes > 0 {
		sum.BudgetRatio = float64(sum.TotalBytes) / float64(sum.SingleIndexBytes)
	}

	reads, err := dna.Simulate(tenantRanks[0], dna.ReadConfig{
		Length: 100, Count: cfg.Reads, ErrorRate: 0.02, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	probes := make([][]byte, len(reads))
	for i, r := range reads {
		probes[i] = alphabet.Decode(r.Seq)
	}

	sum.Equivalent = true
	if relative {
		for i, rx := range serving {
			for _, p := range probes {
				for _, k := range tenantProbeKs {
					got, _, err := bwtmatch.SearchMethod(rx, p, k, bwtmatch.AlgorithmA)
					if err != nil {
						return err
					}
					want, _, err := bwtmatch.SearchMethod(standalone[i], p, k, bwtmatch.AlgorithmA)
					if err != nil {
						return err
					}
					sum.EquivalenceProbes++
					if !matchesEqual(got, want) {
						sum.Equivalent = false
					}
				}
			}
		}
	}

	rep := JSONReport{
		Schema:          "kmbench/v1",
		Scale:           cfg.Scale,
		Reads:           len(probes),
		Seed:            cfg.Seed,
		Rounds:          rounds,
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GoVersion:       runtime.Version(),
		BuildNS:         sum.BuildNS,
		BuildGOMAXPROCS: runtime.GOMAXPROCS(0),
		Tenant:          &sum,
	}
	for _, k := range jsonKs {
		for _, m := range jsonMethods {
			if tr != nil {
				tr.Begin(fmt.Sprintf("tenant-search/%v/k=%d", m, k))
			}
			cell, err := timeCell(serving[0], probes, k, m, rounds)
			if err != nil {
				return err
			}
			cell.Experiment = "tenant-search"
			cell.Genome = spec.Name + "-tenant"
			if tr != nil {
				tr.End(obs.Arg{Key: "ns_per_read", Val: cell.NSPerRead})
			}
			rep.Results = append(rep.Results, cell)
		}
	}
	rep.PeakRSSBytes = obs.PeakRSS()
	rep.PeakBuildRSS = rep.PeakRSSBytes
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// mutateRanks returns a copy of the rank-encoded genome g with rate·len
// point substitutions (each to one of the three other bases).
func mutateRanks(rng *rand.Rand, g []byte, rate float64) []byte {
	out := make([]byte, len(g))
	copy(out, g)
	edits := int(float64(len(g)) * rate)
	for i := 0; i < edits; i++ {
		p := rng.Intn(len(out))
		// Base ranks are 1..4 (alphabet.A..alphabet.T, 0 is the
		// sentinel); rotate to one of the other three bases.
		out[p] = byte((int(out[p])-1+1+rng.Intn(3))%4 + 1)
	}
	return out
}

func matchesEqual(a, b []bwtmatch.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
