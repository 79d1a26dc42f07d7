package analysis_test

import (
	"testing"

	"lard/internal/analysis"
	"lard/internal/analysis/analysistest"
)

func TestKeyNeutral(t *testing.T) {
	analysistest.Run(t, "testdata/keyneutral", analysis.KeyNeutralAnalyzer,
		"lard/internal/sim", "lard/internal/resultstore", "lard")
}

func TestRegistryDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata/registrydiscipline", analysis.RegistryDisciplineAnalyzer,
		"lard/internal/coherence", "consumer", "lard")
}

func TestBusLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/buslockorder", analysis.BusLockOrderAnalyzer,
		"lard/internal/engine", "app")
}

func TestObsHygiene(t *testing.T) {
	analysistest.Run(t, "testdata/obshygiene", analysis.ObsHygieneAnalyzer,
		"lard/internal/render")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/ctxflow", analysis.CtxFlowAnalyzer, "app")
}

func TestCheckedErr(t *testing.T) {
	analysistest.Run(t, "testdata/checkederr", analysis.CheckedErrAnalyzer,
		"lard/internal/resultstore")
}
