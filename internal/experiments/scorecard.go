package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

func init() {
	register(Definition{
		ID:    "scorecard",
		Title: "Adaptive/predictive policy scorecard vs the fixed-gain baseline (extension)",
		Paper: "§III designs the PIC for the identified plant a = 0.79 and fixed gains; the scorecard quantifies what online re-identification and planning buy on top",
		Run:   runScorecard,
	})
}

// scorecardSettleTol is the settling band: an epoch counts as settled when
// its mean power is within this fraction of the budget and every later
// epoch stays there.
const scorecardSettleTol = 0.05

// settleEpochs returns the first epoch index from which every epoch's mean
// power stays within tol of the budget — len(epochs) when the run never
// settles.
func settleEpochs(epochs []float64, budget, tol float64) int {
	settled := len(epochs)
	for i := len(epochs) - 1; i >= 0; i-- {
		if math.Abs(epochs[i]-budget)/budget > tol {
			break
		}
		settled = i
	}
	return settled
}

// meanTrackErr is the mean per-epoch |power − budget|/budget over the whole
// measurement window; runs start cold (no warmup), so the transient counts.
func meanTrackErr(epochs []float64, budget float64) float64 {
	if len(epochs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range epochs {
		sum += math.Abs(p-budget) / budget
	}
	return sum / float64(len(epochs))
}

// runScorecard races the adaptive-gain PIC, the MPC-style GPM and the
// cache-aware policy against the paper's fixed-gain performance-aware
// configuration, on two workload mixes, scoring budget-tracking error,
// settling time and efficiency. Runs start cold (zero warmup) on purpose:
// settling behaviour is half of what adaptation is for.
func runScorecard(o Options) (Result, error) {
	meas := o.epochs(16)
	type config struct {
		key      string
		label    string
		policy   string // registry name; "" = the paper's performance-aware default
		adaptive bool
	}
	configs := []config{
		{key: "fixed", label: "fixed-gain PIC (baseline)"},
		{key: "adaptive", label: "adaptive-gain PIC", adaptive: true},
		{key: "mpc", label: "MPC-style GPM", policy: "mpc"},
		{key: "cache", label: "cache-aware GPM", policy: "cache"},
	}

	mixes := []workload.Mix{workload.Mix1(), workload.Mix2()}
	budgets := make([]float64, len(mixes))
	var scs []check.Scenario
	for m, mix := range mixes {
		base := spec(mix)
		cal, err := base.Calibration(o.seed())
		if err != nil {
			return Result{}, err
		}
		budgets[m] = cal.BudgetW(0.8)
		base.BudgetFrac, base.WarmEpochs, base.MeasureEpochs = 0.8, 0, meas
		for _, cc := range configs {
			sc := base
			sc.Adaptive = cc.adaptive
			if cc.policy != "" {
				if sc.Policy, err = check.PolicyByName(cc.policy); err != nil {
					return Result{}, err
				}
			}
			scs = append(scs, sc)
		}
	}
	res, err := o.runAll(scs)
	if err != nil {
		return Result{}, err
	}

	var b strings.Builder
	sets := map[string]*trace.Set{}
	metricsOut := map[string]float64{}
	for m, mix := range mixes {
		// "Mix-1" → "mix1": metric keys stay flat and shell-friendly.
		mixKey := strings.ToLower(strings.ReplaceAll(mix.Name, "-", ""))
		budget := budgets[m]
		set := trace.NewSet("epoch")
		var rows [][]string
		for _, cc := range configs {
			sum := res.next()
			trackErr := meanTrackErr(sum.Epochs, budget)
			settle := settleEpochs(sum.Epochs, budget, scorecardSettleTol)
			bipsPerW := sum.MeanBIPS / sum.MeanPowerW
			rows = append(rows, []string{
				cc.label,
				pct(trackErr),
				fmt.Sprintf("%d/%d", settle, meas),
				fmt.Sprintf("%.4f", bipsPerW),
			})
			series := set.Get(cc.key)
			for _, pw := range sum.Epochs {
				series.Append(math.Abs(pw-budget) / budget)
			}
			prefix := mixKey + "_" + cc.key
			metricsOut[prefix+"_track_err"] = trackErr
			metricsOut[prefix+"_settle_epochs"] = float64(settle)
			metricsOut[prefix+"_bips_per_w"] = bipsPerW
		}
		sets["scorecard-"+mixKey] = set
		fmt.Fprintf(&b, "%s at %.1f W (80%%), cold start, %d epochs:\n\n", mix.Name, budget, meas)
		b.WriteString(trace.Table([]string{"Configuration", "Tracking error", "Settled by epoch", "BIPS/W"}, rows))
		b.WriteString("\n")
	}
	b.WriteString("Tracking error is the mean per-epoch |power − budget|/budget including the\n" +
		"cold-start transient; \"settled by\" is the first epoch after which power stays\n" +
		"within 5% of the budget.\n")
	return Result{
		ID:      "scorecard",
		Title:   "Extension: adaptive/predictive policy scorecard",
		Text:    b.String(),
		Sets:    sets,
		Metrics: metricsOut,
	}, nil
}
