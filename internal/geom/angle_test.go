package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWrapAngleRange(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		theta = math.Mod(theta, 1e9)
		w := WrapAngle(theta)
		return w >= 0 && w < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapPiRange(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		theta = math.Mod(theta, 1e9)
		w := WrapPi(theta)
		return w > -math.Pi-1e-12 && w <= math.Pi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// wrapPiMod is WrapPi in its plain form, math.Mod on every input: the
// reference WrapPi's fast path must match bit for bit.
func wrapPiMod(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	switch {
	case t <= -math.Pi:
		t += 2 * math.Pi
	case t > math.Pi:
		t -= 2 * math.Pi
	}
	return t
}

func TestWrapPiMatchesModForm(t *testing.T) {
	inputs := []float64{
		0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi,
		math.Nextafter(math.Pi, 0), math.Nextafter(math.Pi, 4),
		math.Nextafter(-math.Pi, 0), math.Nextafter(-math.Pi, -4),
		math.Nextafter(2*math.Pi, 0), math.Nextafter(2*math.Pi, 7),
		math.Nextafter(-2*math.Pi, 0), math.Nextafter(-2*math.Pi, -7),
		3 * math.Pi, -3 * math.Pi, 1e300, -1e300, 5e-324, -5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		inputs = append(inputs, (rng.Float64()*2-1)*8*math.Pi, rng.NormFloat64()*1e6)
	}
	for _, x := range inputs {
		got, want := WrapPi(x), wrapPiMod(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("WrapPi(%v) = %v (%#x), math.Mod form %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAngleDiffCases(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, -math.Pi / 2},
		{0.1, 2*math.Pi - 0.1, -0.2},
		{2*math.Pi - 0.1, 0.1, 0.2},
		{1, 1, 0},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAxialDist(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, math.Pi, 0},               // same axis
		{0, math.Pi / 2, math.Pi / 2}, // perpendicular
		{0.1, math.Pi + 0.1, 0},
		{0, math.Pi / 4, math.Pi / 4},
		{math.Pi - 0.1, 0.1, 0.2},
	}
	for _, c := range cases {
		if got := AxialDist(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AxialDist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCircularMeanWraparound(t *testing.T) {
	// Angles straddling the 0/2pi seam must average near the seam, not
	// near pi as an arithmetic mean would.
	angles := []float64{0.1, 2*math.Pi - 0.1}
	got := CircularMean(angles)
	if AngleDist(got, 0) > 1e-9 {
		t.Errorf("CircularMean seam = %v, want ~0", got)
	}
}

func TestCircularMeanUniformOffset(t *testing.T) {
	f := func(base float64) bool {
		if math.IsNaN(base) || math.IsInf(base, 0) {
			return true
		}
		base = WrapAngle(base)
		angles := []float64{base - 0.05, base, base + 0.05}
		return AngleDist(CircularMean(angles), WrapAngle(base)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCircularStdDev(t *testing.T) {
	if got := CircularStdDev([]float64{1, 1, 1}); !almostEq(got, 0, 1e-9) {
		t.Errorf("identical angles stddev = %v", got)
	}
	spread := CircularStdDev([]float64{0, 0.5, 1.0})
	tight := CircularStdDev([]float64{0, 0.05, 0.1})
	if spread <= tight {
		t.Errorf("spread %v should exceed tight %v", spread, tight)
	}
	if got := CircularStdDev([]float64{1}); got != 0 {
		t.Errorf("single sample stddev = %v", got)
	}
}

func TestUnwrapPhasesMonotone(t *testing.T) {
	// A steadily increasing true phase wrapped into [0,2pi) must unwrap
	// back to a monotone series.
	var wrapped []float64
	for i := 0; i < 100; i++ {
		wrapped = append(wrapped, WrapAngle(0.3*float64(i)))
	}
	un := UnwrapPhases(wrapped)
	for i := 1; i < len(un); i++ {
		if un[i]-un[i-1] <= 0 {
			t.Fatalf("unwrapped not monotone at %d: %v -> %v", i, un[i-1], un[i])
		}
		if !almostEq(un[i]-un[i-1], 0.3, 1e-9) {
			t.Fatalf("unwrapped step at %d = %v, want 0.3", i, un[i]-un[i-1])
		}
	}
}

func TestUnwrapPhasesEmpty(t *testing.T) {
	if got := UnwrapPhases(nil); len(got) != 0 {
		t.Errorf("UnwrapPhases(nil) = %v", got)
	}
}

func TestDegreesRadiansRoundTrip(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.IsInf(deg, 0) || math.Abs(deg) > 1e9 {
			return true
		}
		return almostEq(Degrees(Radians(deg)), deg, 1e-6*(1+math.Abs(deg)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
