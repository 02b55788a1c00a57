// Package energy defines the units and arithmetic used throughout ecoDB:
// watts, joules, the energy-delay product (EDP), and piecewise-constant
// power traces that meters sample.
//
// The paper (Lang & Patel, CIDR 2009) uses CPU joules as its primary energy
// metric and EDP = joules × seconds as its primary combined metric; the
// iso-EDP curve in its Figure 2 separates "interesting" operating points
// (below the curve) from uninteresting ones.
package energy

import "fmt"

// Watts is instantaneous power.
type Watts float64

func (w Watts) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// Joules is an amount of energy.
type Joules float64

func (j Joules) String() string { return fmt.Sprintf("%.1fJ", float64(j)) }

// Volts is electrical potential.
type Volts float64

// Over returns the average power of j joules spent over d seconds.
func (j Joules) Over(seconds float64) Watts {
	if seconds <= 0 {
		return 0
	}
	return Watts(float64(j) / seconds)
}

// For returns the energy of drawing w watts for d seconds.
func (w Watts) For(seconds float64) Joules {
	return Joules(float64(w) * seconds)
}

// EDP is the energy-delay product, in joule-seconds. Lower is better: a
// setting with lower EDP gains a larger percentage of energy saving than it
// loses in response time.
type EDP float64

// EDPOf computes the energy-delay product of a run.
func EDPOf(e Joules, seconds float64) EDP {
	return EDP(float64(e) * seconds)
}

// RelChange returns the relative change (new-old)/old, e.g. -0.49 for a 49%
// reduction. It returns 0 when old is 0.
func RelChange[T ~float64](old, new T) float64 {
	if old == 0 {
		return 0
	}
	return (float64(new) - float64(old)) / float64(old)
}

// Ratio returns new/old, the form the paper plots on both axes of its
// Figures 2 and 3 ("ratio compared to the stock setting"). It returns 0
// when old is 0.
func Ratio[T ~float64](old, new T) float64 {
	if old == 0 {
		return 0
	}
	return float64(new) / float64(old)
}

// IsoEDP returns the time ratio that keeps EDP constant for a given energy
// ratio, i.e. the solid curve in the paper's Figure 2: points (e, t) with
// e·t = 1. Energy ratios ≤ 0 return +Inf-free 0 for plotting convenience.
func IsoEDP(energyRatio float64) float64 {
	if energyRatio <= 0 {
		return 0
	}
	return 1 / energyRatio
}

// IsoEDPCurve samples the constant-EDP curve between the two energy ratios
// inclusive, for rendering alongside measured operating points.
func IsoEDPCurve(fromEnergyRatio, toEnergyRatio float64, points int) [][2]float64 {
	if points < 2 {
		points = 2
	}
	curve := make([][2]float64, points)
	step := (toEnergyRatio - fromEnergyRatio) / float64(points-1)
	for i := range curve {
		e := fromEnergyRatio + float64(i)*step
		curve[i] = [2]float64{e, IsoEDP(e)}
	}
	return curve
}
