package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RMS returns the root-mean-square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MedianInPlace returns the median of xs (0 for an empty slice), reordering
// xs in the process: the middle order statistic, or the mean of the two
// middle ones for an even length — for NaN-free xs the value a sorted copy
// gives — in O(n) and without allocating.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return middle(xs, len(xs)/2, len(xs)%2 == 0)
}

// middle reorders xs and returns its k-th order statistic, or with even set
// the mean of the (k−1)-th and the k-th (k >= 1 then).
func middle(xs []float64, k int, even bool) float64 {
	m := quickselect(xs, k)
	if !even {
		return m
	}
	// The (k−1)-th order statistic is the maximum of the left partition
	// quickselect leaves behind.
	lo := xs[0]
	for _, x := range xs[:k] {
		if x > lo {
			lo = x
		}
	}
	return 0.5 * (lo + m)
}

// quickselect reorders xs so that xs[k] holds its k-th order statistic
// (everything before it <=, everything after >=) and returns it.
// Median-of-three pivoting keeps the recursion shallow on the
// nearly-flat-with-spikes spectra the decoder feeds it; the loop is fully
// deterministic.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot of lo, mid, hi.
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if p <= 0 {
		return tmp[0]
	}
	if p >= 100 {
		return tmp[len(tmp)-1]
	}
	pos := p / 100 * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	X float64 // value
	P float64 // P(value <= X)
}

// EmpiricalCDF returns the empirical CDF of xs as sorted (value, probability)
// points. xs is not modified.
func EmpiricalCDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	out := make([]CDFPoint, len(tmp))
	for i, x := range tmp {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(tmp))}
	}
	return out
}
