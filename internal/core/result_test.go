package core

import (
	"strings"
	"testing"
)

// TestResultTableRendering pins the text layout: title, headers, a rule as
// wide as the columns and their gaps, numeric-looking cells right-aligned,
// floats at two decimals, and no trailing spaces on any line. Column widths
// are byte lengths while padding counts runes, as fmt's %*s does: the
// multi-byte "µ" row pins that rule, which no golden exercises.
func TestResultTableRendering(t *testing.T) {
	tb := NewResultTable("T1", Col("workload", ""), Col("ops", "ops"), Col("ratio", ""))
	tb.AddRow("netrx", 1000, 1.03)
	tb.AddRow("syscall", 5, "0.99x")
	tb.AddRow("idle", 0, "")
	tb.AddRow("µ-benchmark", 12, float32(0.5))
	want := "T1\n" +
		"workload      ops   ratio\n" +
		"-------------------------\n" +
		"netrx         1000   1.03\n" +
		"syscall          5  0.99x\n" +
		"idle             0\n" +
		"µ-benchmark     12   0.50\n"
	if got := tb.String(); got != want {
		t.Fatalf("table =\n%s\nwant\n%s", got, want)
	}
	for _, l := range strings.Split(tb.String(), "\n") {
		if strings.TrimRight(l, " ") != l {
			t.Fatalf("line has trailing spaces: %q", l)
		}
	}
	if got, want := NewResult(tb, tb).Text(), want+"\n"+want+"\n"; got != want {
		t.Fatalf("Result.Text = %q, want each table followed by a blank line", got)
	}
}

func TestResultTableCSV(t *testing.T) {
	tb := NewResultTable("ignored", Col("a", ""), Col("b", ""))
	tb.AddRow(`x,y`, `he said "hi"`)
	tb.AddRow(2.5, 7)
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n2.50,7\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
	if got := NewResult(tb, tb).CSV(); got != want+want {
		t.Fatalf("Result.CSV = %q, want the tables back to back", got)
	}
}

func TestLooksNumeric(t *testing.T) {
	cases := map[string]bool{
		"123": true, "-4.5": true, "87%": true, "1.03x": true,
		"abc": false, "": false, "1.2.3": false, "x": false,
	}
	for s, want := range cases {
		if got := looksNumeric(s); got != want {
			t.Errorf("looksNumeric(%q) = %v, want %v", s, got, want)
		}
	}
}
