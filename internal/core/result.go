package core

// result.go is the single typed result model every experiment returns: a
// column schema with units, the rows, and the echoed parameters, with
// renderers for aligned text (byte-identical to the pre-registry tables),
// CSV, and a stable JSON encoding downstream tooling (benchmark trackers,
// regression diffing, sweep aggregation) can consume without screen-scraping.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Column is one column of a ResultTable: the display name (exactly the
// header the text and CSV renderers print) plus the unit of the quantity,
// carried separately for machine-readable output.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// Col constructs a Column.
func Col(name, unit string) Column { return Column{Name: name, Unit: unit} }

// ResultTable is one table of an experiment's Result: title, column schema
// and rows. Cells keep their native types (integers stay numbers in JSON);
// cells the text renderer shows pre-formatted (percentages, ratios) are
// strings here too, so every renderer agrees on what was measured.
type ResultTable struct {
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// NewResultTable returns a table with the given title and column schema.
func NewResultTable(title string, cols ...Column) *ResultTable {
	return &ResultTable{Title: title, Columns: cols}
}

// AddRow appends one row; cells line up with Columns.
func (t *ResultTable) AddRow(cells ...any) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text: the title line, the headers,
// a dashed rule, then one line per row. Numeric-looking cells are
// right-aligned and everything else left-aligned; trailing spaces are
// trimmed from every line, so golden files compare cleanly.
func (t *ResultTable) String() string { return string(t.appendText(nil)) }

// CSV renders the table as comma-separated values (headers first).
func (t *ResultTable) CSV() string { return string(t.appendCSV(nil)) }

// cells returns the header row followed by every row formatted the way all
// renderers print it: floats with two decimals, everything else as %v.
// Strings and plain integers, most cells, skip fmt: %v renders them just as
// they are and as strconv does.
func (t *ResultTable) cells() [][]string {
	out := make([][]string, 1, 1+len(t.Rows))
	out[0] = make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[0][i] = c.Name
	}
	for _, row := range t.Rows {
		r := make([]string, len(row))
		for i, c := range row {
			switch v := c.(type) {
			case float64:
				r[i] = fmt.Sprintf("%.2f", v)
			case float32:
				r[i] = fmt.Sprintf("%.2f", v)
			case string:
				r[i] = v
			case int:
				r[i] = strconv.Itoa(v)
			case uint64:
				r[i] = strconv.FormatUint(v, 10)
			default:
				r[i] = fmt.Sprint(c)
			}
		}
		out = append(out, r)
	}
	return out
}

// looksNumeric reports whether a formatted cell reads as a number (an
// optional leading minus, digits with at most one dot, and an optional "%"
// or ratio "x" suffix), which the text renderer right-aligns.
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	digits := 0
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '-' && i == 0:
		case r == '.' && !dot:
			dot = true
		case r == '%' && i == len(s)-1:
		case r == 'x' && i == len(s)-1: // ratio suffix like "1.03x"
		default:
			return false
		}
	}
	return digits > 0
}

// appendText appends the String rendering to b. Column widths are byte
// lengths while padding counts runes, as fmt's %*s does; the printed
// tables have always been laid out that way.
func (t *ResultTable) appendText(b []byte) []byte {
	rows := t.cells()
	var widths []int
	for _, r := range rows {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	if t.Title != "" {
		b = append(append(b, t.Title...), '\n')
	}
	for n, r := range rows {
		start := len(b)
		for i, w := range widths {
			var c string
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b = append(b, "  "...)
			}
			num := looksNumeric(c)
			if !num {
				b = append(b, c...)
			}
			for pad := w - utf8.RuneCountInString(c); pad > 0; pad-- {
				b = append(b, ' ')
			}
			if num {
				b = append(b, c...)
			}
		}
		for len(b) > start && b[len(b)-1] == ' ' {
			b = b[:len(b)-1]
		}
		b = append(b, '\n')
		if n == 0 {
			rule := 2 * (len(widths) - 1)
			for _, w := range widths {
				rule += w
			}
			b = append(append(b, strings.Repeat("-", rule)...), '\n')
		}
	}
	return b
}

// appendCSV appends the CSV rendering to b.
func (t *ResultTable) appendCSV(b []byte) []byte {
	for _, r := range t.cells() {
		for i, c := range r {
			if i > 0 {
				b = append(b, ',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b = append(b, c...)
		}
		b = append(b, '\n')
	}
	return b
}

// Result is the uniform experiment outcome: which experiment ran, with
// which (normalized) parameters, and the tables it produced. RunExperiment
// stamps Experiment, Title and Params; Spec.Run only builds Tables.
type Result struct {
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Params     Params         `json:"params"`
	Tables     []*ResultTable `json:"tables"`
}

// NewResult wraps tables into a Result (id, title and params are stamped by
// RunExperiment).
func NewResult(tables ...*ResultTable) *Result {
	return &Result{Tables: tables}
}

// Text renders every table as the aligned text the CLI prints by default,
// one blank line after each table — byte-identical to the pre-registry
// per-experiment output.
func (r *Result) Text() string {
	var b []byte
	for _, t := range r.Tables {
		b = append(t.appendText(b), '\n')
	}
	return string(b)
}

// CSV renders every table as comma-separated values (headers first).
func (r *Result) CSV() string {
	var b []byte
	for _, t := range r.Tables {
		b = t.appendCSV(b)
	}
	return string(b)
}

// JSON returns the stable machine-readable encoding: one compact document
// with the experiment id, title, echoed params, and every table's column
// schema (with units) and rows. Params encode with sorted keys, so equal
// results encode to equal bytes.
func (r *Result) JSON() ([]byte, error) {
	return json.Marshal(r)
}
