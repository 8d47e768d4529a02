// Package fitting provides the estimation routines the experiment harnesses
// need: exponential decay fits A*lambda^d for layer-fidelity and
// error-mitigation-overhead analysis, scaled-ideal fits meas ~ A*lambda^d *
// ideal for the global depolarizing model of paper Sec. V B, and linear
// least squares.
package fitting

import (
	"errors"
	"math"
)

// Linear fits y = a + b*x by ordinary least squares.
func Linear(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, errors.New("fitting: need >= 2 matching points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, errors.New("fitting: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, nil
}

// ExpDecay fits y = A * lambda^x via log-linear least squares over the
// points with y > floor (default floor 1e-6). Returns A and lambda.
func ExpDecay(xs, ys []float64) (amp, lambda float64, err error) {
	const floor = 1e-6
	var fx, fy []float64
	for i := range xs {
		if ys[i] > floor {
			fx = append(fx, xs[i])
			fy = append(fy, math.Log(ys[i]))
		}
	}
	if len(fx) < 2 {
		return 0, 0, errors.New("fitting: too few positive points for decay fit")
	}
	a, b, err := Linear(fx, fy)
	if err != nil {
		return 0, 0, err
	}
	return math.Exp(a), math.Exp(b), nil
}

// ScaledIdeal fits meas_d ~ A * lambda^d * ideal_d — the global
// depolarizing model the paper uses to estimate mitigation overhead
// (Sec. V B): A captures state preparation/readout error and lambda the
// per-step fidelity. lambda is grid-searched on (0, 1]; A has a closed form
// given lambda. Returns the fit and its RMS residual.
func ScaledIdeal(ds []float64, ideal, meas []float64) (amp, lambda, rms float64, err error) {
	if len(ds) != len(ideal) || len(ds) != len(meas) || len(ds) < 2 {
		return 0, 0, 0, errors.New("fitting: need >= 2 matching points")
	}
	best := math.Inf(1)
	for l := 0.500; l <= 1.0001; l += 0.0005 {
		// Closed-form A minimizing sum (A f_d - m_d)^2 with f_d = l^d * ideal_d.
		var num, den float64
		for i := range ds {
			f := math.Pow(l, ds[i]) * ideal[i]
			num += f * meas[i]
			den += f * f
		}
		if den == 0 {
			continue
		}
		a := num / den
		var sse float64
		for i := range ds {
			r := a*math.Pow(l, ds[i])*ideal[i] - meas[i]
			sse += r * r
		}
		if sse < best {
			best = sse
			amp, lambda = a, l
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0, 0, errors.New("fitting: scaled-ideal fit failed")
	}
	return amp, lambda, math.Sqrt(best / float64(len(ds))), nil
}

// SamplingOverhead converts a scaled-ideal fit into the relative
// error-mitigation sampling overhead at depth d: rescaling the signal by
// 1/(A lambda^d) multiplies the variance by (A lambda^d)^-2 (paper
// Sec. V B).
func SamplingOverhead(amp, lambda float64, d int) float64 {
	f := amp * math.Pow(lambda, float64(d))
	if f <= 0 {
		return math.Inf(1)
	}
	return 1 / (f * f)
}
