// Package stats provides fixed-width table rendering.
package stats

import "strings"

// Table renders rows of cells in aligned columns. The first row is treated
// as a header; align is per-column ('l' or 'r', defaulting to 'r' when
// shorter than the row).
type Table struct {
	Align string
	rows  [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := []int{}
	for _, row := range t.rows {
		for i, c := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			align := byte('r')
			if i < len(t.Align) {
				align = t.Align[i]
			}
			pad := widths[i] - len(c)
			if align == 'l' {
				b.WriteString(c)
				if i < len(row)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
