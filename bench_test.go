// Top-level benchmarks: one per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at a reduced scale
// (so `go test -bench=.` completes in minutes) and reports the headline
// simulated quantity as a custom metric. cmd/sionbench runs the same
// experiments at the paper's full scale.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/expt"
)

// benchScale divides the paper's task counts and data volumes.
const benchScale = 16

// lastFloat extracts the trailing numeric cell of a row (strips units).
func lastFloat(cells []string, col int) float64 {
	s := strings.TrimSuffix(strings.TrimSpace(cells[col]), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

func benchExperiment(b *testing.B, name string, metric func(r *expt.Result) (float64, string)) {
	b.Helper()
	run := expt.ByName(name)
	if run == nil {
		b.Fatalf("unknown experiment %s", name)
	}
	var res *expt.Result
	for i := 0; i < b.N; i++ {
		res = run(benchScale)
	}
	if v, unit := metric(res); unit != "" {
		b.ReportMetric(v, unit)
	}
}

// BenchmarkFig3aFileCreation regenerates Fig. 3a (Jugene file creation vs
// SION create); the metric is the simulated creation time of the largest
// configuration's task-local files.
func BenchmarkFig3aFileCreation(b *testing.B) {
	benchExperiment(b, "fig3a", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-create-s"
	})
}

// BenchmarkFig3bFileCreation regenerates Fig. 3b (Jaguar).
func BenchmarkFig3bFileCreation(b *testing.B) {
	benchExperiment(b, "fig3b", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-create-s"
	})
}

// BenchmarkFig4aBandwidthVsFiles regenerates Fig. 4a; the metric is the
// saturated write bandwidth (last row).
func BenchmarkFig4aBandwidthVsFiles(b *testing.B) {
	benchExperiment(b, "fig4a", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-MB/s"
	})
}

// BenchmarkFig4bStriping regenerates Fig. 4b (Jaguar striping configs).
func BenchmarkFig4bStriping(b *testing.B) {
	benchExperiment(b, "fig4b", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-MB/s"
	})
}

// BenchmarkTable1Alignment regenerates Table 1; the metric is the
// write-degradation ratio of misaligned chunks.
func BenchmarkTable1Alignment(b *testing.B) {
	benchExperiment(b, "tab1", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "align-ratio"
	})
}

// BenchmarkFig5aSionVsTaskLocal regenerates Fig. 5a (Jugene).
func BenchmarkFig5aSionVsTaskLocal(b *testing.B) {
	benchExperiment(b, "fig5a", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-MB/s"
	})
}

// BenchmarkFig5bSionVsTaskLocal regenerates Fig. 5b (Jaguar).
func BenchmarkFig5bSionVsTaskLocal(b *testing.B) {
	benchExperiment(b, "fig5b", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 1), "sim-MB/s"
	})
}

// BenchmarkFig6MP2CRestart regenerates Fig. 6; the metric is the baseline/
// SION write-time ratio at 33 Mio particles.
func BenchmarkFig6MP2CRestart(b *testing.B) {
	benchExperiment(b, "fig6", func(r *expt.Result) (float64, string) {
		for _, row := range r.Rows {
			if row[0] == "33" {
				return lastFloat(row, 3) / lastFloat(row, 1), "speedup-33Mio"
			}
		}
		return 0, ""
	})
}

// BenchmarkTable2ScalascaActivation regenerates Table 2; the metric is the
// activation speedup.
func BenchmarkTable2ScalascaActivation(b *testing.B) {
	benchExperiment(b, "tab2", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[len(r.Rows)-1], 3), "activation-speedup"
	})
}

// BenchmarkTable3CollectiveIO regenerates the collective-I/O request-
// reduction table; the metric is the direct/async-collective write-time
// ratio (how much the async collective subsystem buys on the small-record
// workload).
func BenchmarkTable3CollectiveIO(b *testing.B) {
	benchExperiment(b, "tab3", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[0], 5) / lastFloat(r.Rows[2], 5), "write-speedup"
	})
}

// BenchmarkTable4BufferedIO regenerates the buffered-staging request-
// reduction table; the metric is the direct/buffered-auto write-time
// ratio (how much direct-path write-behind buys on the small-record
// workload).
func BenchmarkTable4BufferedIO(b *testing.B) {
	benchExperiment(b, "tab4", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[0], 3) / lastFloat(r.Rows[2], 3), "write-speedup"
	})
}

// BenchmarkTable5MappedReopen regenerates the rescaled-reopen table; the
// metric is the direct/collective read-request ratio of the last reader
// configuration (M > N), i.e. how many physical reads the mapped
// collectors save on a rescaled restart.
func BenchmarkTable5MappedReopen(b *testing.B) {
	benchExperiment(b, "tab5", func(r *expt.Result) (float64, string) {
		last := len(r.Rows) - 1
		return lastFloat(r.Rows[last-1], 4) / lastFloat(r.Rows[last], 4), "read-request-reduction"
	})
}

// BenchmarkTable6Serve regenerates the read-serving table; the metric is
// the uncached/served backend read-request ratio of the big-cache row —
// how many backend requests the serving subsystem (sharded block cache +
// coalesced span fetches) saves on the zipfian client workload.
func BenchmarkTable6Serve(b *testing.B) {
	benchExperiment(b, "tab6", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[0], 4) / lastFloat(r.Rows[1], 4), "backend-read-reduction"
	})
}

// BenchmarkTable7Tailing regenerates the live-tailing table; the metric
// is the number of verified injected-crash trials (the streaming lag,
// torn-record, and byte-identity bounds are asserted inside the
// experiment, so the run fails loudly rather than reporting a bad
// number). The trial count is fixed and the simulation deterministic, so
// the metric doubles as a regression tripwire for the crash sweep.
func BenchmarkTable7Tailing(b *testing.B) {
	benchExperiment(b, "tab7", func(r *expt.Result) (float64, string) {
		verified := strings.Split(r.Rows[1][7], "/")[0]
		v, err := strconv.ParseFloat(verified, 64)
		if err != nil {
			b.Fatalf("tab7 verified cell %q: %v", r.Rows[1][7], err)
		}
		return v, "crash-trials-verified"
	})
}

// BenchmarkTable8Chaos regenerates the transient-fault chaos table; the
// metrics are the retries the bounded-backoff budgets absorbed across the
// storm phases (nonzero by construction — the seeded fault storm always
// injects — and gated lower-better, so a retry storm blowing past the
// tolerance fails CI) and the give-ups of the phases that guarantee full
// absorption (the retry-budget serve storm, the writer storm, and the
// no-injection guard), which must stay exactly zero: benchjson refuses
// any movement on a baseline-zero "giveups" metric.
func BenchmarkTable8Chaos(b *testing.B) {
	benchExperiment(b, "tab8", func(r *expt.Result) (float64, string) {
		const colRetries, colGiveUps = 4, 5
		var giveups float64
		// Rows 1 (retry serve storm), 2 (writer storm), 4 (no-injection)
		// promise zero give-ups; row 0 (no-retry) and row 3 (breaker
		// drill) give up by design.
		for _, i := range []int{1, 2, 4} {
			giveups += lastFloat(r.Rows[i], colGiveUps)
		}
		b.ReportMetric(giveups, "chaos-giveups")
		return lastFloat(r.Rows[1], colRetries) + lastFloat(r.Rows[2], colRetries), "chaos-retries"
	})
}

// BenchmarkTable9Cluster regenerates the clustered serving-tier table;
// the metric is the independent-caches/cluster backend read-request
// ratio — how much the consistent-hash ring (one owner per block) with
// peer fill saves over N independent caches on the same zipfian storm.
// Byte identity (including across join/leave churn), the bounded churn
// tail, and seed-exact replay are asserted inside the experiment, so the
// run fails loudly rather than reporting a bad number.
func BenchmarkTable9Cluster(b *testing.B) {
	benchExperiment(b, "tab9", func(r *expt.Result) (float64, string) {
		return lastFloat(r.Rows[0], 3) / lastFloat(r.Rows[1], 3), "backend-read-reduction"
	})
}

// BenchmarkTable10Backends regenerates the backend auto-tuning table; the
// metric is the auto-tuned arm's total object-store request count, gated
// lower-better (the "objstore-requests" unit): a geometry regression that
// starts paying staged copies or per-record GETs again fails CI. Byte
// identity across backends and the ≥2× reduction versus POSIX-tuned
// geometry are asserted inside the experiment, so the run fails loudly
// rather than reporting a bad number.
func BenchmarkTable10Backends(b *testing.B) {
	benchExperiment(b, "tab10", func(r *expt.Result) (float64, string) {
		const colTotal = 7
		return lastFloat(r.Rows[2], colTotal), "objstore-requests"
	})
}
