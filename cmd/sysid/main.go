// Command sysid performs the offline system identification of §II-D for a
// chosen application mix: it measures the chip's unmanaged power demand,
// fits per-island utilization→power transducers (Figure 6) and the plant
// gain a of the difference model P(t+1) = P(t) + a·d(t) (Equation 8), and
// verifies that the paper's PID gains remain stable for the identified gain.
//
// Usage:
//
//	sysid [-mix mix1|mix2|mix3|thermal] [-seed N] [-measure N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cpm-sim/cpm/internal/control"
	"github.com/cpm-sim/cpm/internal/core"
	"github.com/cpm-sim/cpm/internal/sensor"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/workload"
)

// minMeasure is the smallest -measure with at least three white-noise
// windows of 8 intervals. With two, each linear transducer fit passes
// through its two points (R² = 1) and each level-aware slope is 0.
const minMeasure = 24

// cli is the parsed, validated command line.
type cli struct {
	mix     workload.Mix
	seed    uint64
	measure int
}

// parseCLI parses and validates the flags; every reject path is an error,
// so the validation is testable.
func parseCLI(args []string, stderr io.Writer) (cli, error) {
	fs := flag.NewFlagSet("sysid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixName := fs.String("mix", "mix1", "application mix: mix1, mix2, mix3, mix3x2, thermal")
	seed := fs.Uint64("seed", 1, "simulation seed")
	measure := fs.Int("measure", 240, fmt.Sprintf(
		"measurement intervals per phase (at least %d); the white-noise run has max(measure/8, 2) windows of 8 intervals", minMeasure))
	if err := fs.Parse(args); err != nil {
		return cli{}, err
	}
	if *measure < minMeasure {
		return cli{}, fmt.Errorf("-measure %d is below %d: the white-noise run needs three 8-interval windows for a meaningful fit", *measure, minMeasure)
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return cli{}, err
	}
	return cli{mix: mix, seed: *seed, measure: *measure}, nil
}

func main() {
	c, err := parseCLI(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysid:", err)
		os.Exit(2)
	}
	cfg := sim.DefaultConfig(c.mix)
	cfg.Seed = c.seed

	cal, err := core.Calibrate(cfg, 60, c.measure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysid:", err)
		os.Exit(1)
	}

	fmt.Printf("System identification for %s (seed %d)\n\n", c.mix.Name, c.seed)
	fmt.Printf("Unmanaged chip demand : %.1f W (the 'required power' §IV budgets are fractions of)\n", cal.UnmanagedPowerW)
	fmt.Printf("Unmanaged throughput  : %.2f BIPS\n", cal.UnmanagedBIPS)
	fmt.Printf("Plant gain a          : %.3f island-power-fraction per normalized-frequency step (paper: 0.79)\n\n", cal.PlantGain)

	var rows [][]string
	for i, lin := range cal.LinearTransducers {
		lt := cal.Transducers[i].(sensor.LevelTransducer)
		rows = append(rows, []string{
			fmt.Sprint(i + 1),
			fmt.Sprintf("P = %.3f·U %+.3f", lin.K0, lin.K1),
			fmt.Sprintf("%.3f", cal.R2[i]),
			fmt.Sprintf("%.3f", lt.Slope),
			fmt.Sprintf("%.3f", cal.LevelR2[i]),
		})
	}
	fmt.Println(trace.Table(
		[]string{"Island", "Linear transducer", "R^2", "Level-aware slope", "R^2"}, rows))

	an, err := control.Analyze(cal.PlantGain, control.PaperGains)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysid: controller analysis:", err)
		os.Exit(1)
	}
	fmt.Printf("\nPID (K_P, K_I, K_D) = (%.2f, %.2f, %.2f) on the identified plant:\n",
		control.PaperGains.KP, control.PaperGains.KI, control.PaperGains.KD)
	fmt.Printf("  closed-loop poles   : %v\n", an.Poles)
	fmt.Printf("  spectral radius     : %.4f (stable: %v)\n", an.SpectralRadius, an.Stable)
	gmax, err := control.MaxStableGainScale(cal.PlantGain, control.PaperGains, 1e-4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysid:", err)
		os.Exit(1)
	}
	fmt.Printf("  stable for gain drift 0 < g < %.3f (paper, at a=0.79: 2.1)\n", gmax)
}
