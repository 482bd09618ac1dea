package session

import (
	"math"
	"testing"
)

func TestOpenOptionsValidate(t *testing.T) {
	i := func(x int) *int { return &x }
	f := func(x float64) *float64 { return &x }
	yes := true
	for _, o := range []OpenOptions{
		{},
		{BeamTopK: i(0), CommitLag: i(0)},
		{BeamTopK: i(64), BeamAdaptive: &yes, Window: f(0.05), SpuriousPhase: f(math.Pi)},
		{Window: f(math.SmallestNonzeroFloat64), SpuriousPhase: f(math.MaxFloat64)},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	for name, o := range map[string]OpenOptions{
		"BeamTopK -1":          {BeamTopK: i(-1)},
		"CommitLag -1":         {CommitLag: i(-1)},
		"adaptive window-only": {BeamTopK: i(0), BeamAdaptive: &yes},
		"Window 0":             {Window: f(0)},
		"Window -0.1":          {Window: f(-0.1)},
		"Window NaN":           {Window: f(math.NaN())},
		"Window +Inf":          {Window: f(math.Inf(1))},
		"Window -Inf":          {Window: f(math.Inf(-1))},
		"SpuriousPhase 0":      {SpuriousPhase: f(0)},
		"SpuriousPhase NaN":    {SpuriousPhase: f(math.NaN())},
		"SpuriousPhase +Inf":   {SpuriousPhase: f(math.Inf(1))},
		"SpuriousPhase -Inf":   {SpuriousPhase: f(math.Inf(-1))},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}
