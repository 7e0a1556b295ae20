package lint_test

import (
	"testing"

	"vmmk/internal/lint"
	"vmmk/internal/lint/linttest"
)

// The fixture tests prove each analyzer both fires on violations and stays
// quiet on the sanctioned idioms (every `// want` in the fixture must match
// a finding, every finding must match a `// want`).

func TestDetrandFixture(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/detrand/a", lint.AnalyzerDetrand)
}

func TestMaporderFixture(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/maporder/a", lint.AnalyzerMaporder)
}

func TestTracecompFixture(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/tracecomp/a", lint.AnalyzerTracecomp)
}

func TestBoundedgoFixture(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/boundedgo/a", lint.AnalyzerBoundedgo)
}

func TestRegspecFixture(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/regspec/a", lint.AnalyzerRegspec)
}
