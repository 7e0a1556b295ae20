package lint

// All returns the full vmmklint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerBoundedgo,
		AnalyzerDetrand,
		AnalyzerMaporder,
		AnalyzerRegspec,
		AnalyzerTracecomp,
	}
}
