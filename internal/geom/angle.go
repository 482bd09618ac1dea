package geom

import "math"

// WrapAngle reduces theta to the interval [0, 2*pi).
func WrapAngle(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	return t
}

// WrapPi reduces theta to the interval (-pi, pi].
func WrapPi(theta float64) float64 {
	// math.Mod returns theta itself when |theta| < 2*pi, the common case
	// (the difference of two wrapped phases), so skip the call there.
	t := theta
	if !(-2*math.Pi < t && t < 2*math.Pi) {
		t = math.Mod(theta, 2*math.Pi)
	}
	switch {
	case t <= -math.Pi:
		t += 2 * math.Pi
	case t > math.Pi:
		t -= 2 * math.Pi
	}
	return t
}

// AngleDiff returns the signed smallest rotation from a to b, in
// (-pi, pi]. AngleDiff(a, b) == 0 means a and b point the same way.
func AngleDiff(a, b float64) float64 { return WrapPi(b - a) }

// AngleDist returns the unsigned smallest separation between a and b,
// in [0, pi].
func AngleDist(a, b float64) float64 { return math.Abs(AngleDiff(a, b)) }

// AxialDist returns the unsigned separation between two *axial*
// orientations, i.e. directions where theta and theta+pi are the same
// physical line (a dipole or a linear polarization). The result is in
// [0, pi/2].
func AxialDist(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), math.Pi)
	if d > math.Pi/2 {
		d = math.Pi - d
	}
	return d
}

// CircularMean returns the circular mean of the given angles, suitable
// for averaging phase readings inside a window: it is immune to the
// 0/2*pi wraparound that corrupts an arithmetic mean. The result is in
// [0, 2*pi). With an empty slice it returns 0.
func CircularMean(angles []float64) float64 {
	if len(angles) == 0 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		sa, ca := math.Sincos(a)
		s += sa
		c += ca
	}
	return WrapAngle(math.Atan2(s, c))
}

// CircularStdDev returns the circular standard deviation of the angles,
// sqrt(-2 ln R) where R is the mean resultant length. It is 0 for
// identical angles and grows without bound as the angles spread. With
// fewer than two samples it returns 0.
func CircularStdDev(angles []float64) float64 {
	if len(angles) < 2 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		sa, ca := math.Sincos(a)
		s += sa
		c += ca
	}
	r := math.Hypot(s, c) / float64(len(angles))
	if r >= 1 {
		return 0
	}
	if r <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(-2 * math.Log(r))
}

// UnwrapPhases returns a copy of the phase series with 2*pi jumps
// removed: consecutive samples are assumed to differ by less than pi,
// which holds whenever the underlying path-length change per sample is
// below lambda/4. This is the standard phase-unwrapping step the paper
// relies on for Eq. 5.
func UnwrapPhases(phases []float64) []float64 {
	out := make([]float64, len(phases))
	if len(phases) == 0 {
		return out
	}
	out[0] = phases[0]
	for i := 1; i < len(phases); i++ {
		out[i] = out[i-1] + AngleDiff(phases[i-1], phases[i])
	}
	return out
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
