package experiment

import (
	"fmt"
	"strings"
)

// Report is the printable result of one experiment.
type Report struct {
	ID       string
	Title    string
	Paper    string // which table/figure of the paper it regenerates
	Sections []Section
}

// Section is one table of a report.
type Section struct {
	Heading string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (s *Section) AddRow(cells ...string) { s.Rows = append(s.Rows, cells) }

// String renders the report as aligned text tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s (%s)\n", r.ID, r.Title, r.Paper)
	for _, sec := range r.Sections {
		if sec.Heading != "" {
			fmt.Fprintf(&b, "\n-- %s\n", sec.Heading)
		} else {
			b.WriteByte('\n')
		}
		widths := make([]int, len(sec.Columns))
		for i, c := range sec.Columns {
			widths[i] = len(c)
		}
		for _, row := range sec.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(sec.Columns)
		sep := make([]string, len(sec.Columns))
		for i, w := range widths {
			sep[i] = strings.Repeat("-", w)
		}
		writeRow(sep)
		for _, row := range sec.Rows {
			writeRow(row)
		}
		for _, n := range sec.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// f2 formats a float with two decimals; f3 with three.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// fd formats a duration in seconds as days with two decimals.
func fd(sec float64) string { return fmt.Sprintf("%.2fd", sec/86400) }

// fint formats a float as an integer count.
func fint(v float64) string { return fmt.Sprintf("%.0f", v) }

// ci formats mean±half as "m±h" when half > 0.
func ci(mean, half float64, fmtfn func(float64) string) string {
	if half > 0 {
		return fmtfn(mean) + "±" + fmtfn(half)
	}
	return fmtfn(mean)
}
