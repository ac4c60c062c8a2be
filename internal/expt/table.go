package expt

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders an aligned plain-text table.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Row appends a row; values are formatted with %v, floats with %.3g unless
// already strings.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = esc(h)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
		return err
	}
	for _, r := range t.rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Plot renders simple ASCII line charts: x vs several named series.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []PlotSeries
}

// PlotSeries is one named curve.
type PlotSeries struct {
	Name   string
	Y      []float64
	Marker byte
}

// render draws the plot with the given character grid size.
func (p *Plot) render(w io.Writer, width, height int) error {
	if width < 16 || height < 4 {
		return fmt.Errorf("expt: plot grid %dx%d too small", width, height)
	}
	var xMin, xMax, yMin, yMax float64
	first := true
	for _, x := range p.X {
		if first || x < xMin {
			xMin = x
		}
		if first || x > xMax {
			xMax = x
		}
		first = false
	}
	yMin, yMax = 0, 0
	for _, s := range p.Series {
		for _, y := range s.Y {
			if y > yMax {
				yMax = y
			}
			if y < yMin {
				yMin = y
			}
		}
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.Series {
		for i, y := range s.Y {
			if i >= len(p.X) {
				break
			}
			cx := int((p.X[i] - xMin) / (xMax - xMin) * float64(width-1))
			cy := int((y - yMin) / (yMax - yMin) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = s.Marker
		}
	}
	if p.Title != "" {
		if _, err := fmt.Fprintln(w, p.Title); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%8.3g ┤\n", yMax)
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "         │%s\n", string(row)); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%8.3g └%s\n", yMin, strings.Repeat("─", width))
	fmt.Fprintf(w, "          %-8.3g%s%8.3g\n", xMin, strings.Repeat(" ", max(width-16, 1)), xMax)
	var legend []string
	for _, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.Marker, s.Name))
	}
	if _, err := fmt.Fprintf(w, "          %s  [%s vs %s]\n", strings.Join(legend, "  "), p.YLabel, p.XLabel); err != nil {
		return err
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
