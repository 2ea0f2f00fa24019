package metrics

import "fmt"

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a named sequence of points — one curve of a paper figure
// (e.g. "with partial configuration" in Fig. 6a).
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// YAt returns the y value at x; ok is false when absent.
func (s *Series) YAt(x float64) (y float64, ok bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure groups the curves of one paper figure plus axis labels.
type Figure struct {
	ID     string   `json:"id"`    // e.g. "6a"
	Title  string   `json:"title"` // e.g. "Average wasted area per task (100 nodes)"
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
}

// CSV renders the figure as comma-separated rows: a header of
// "x,<series...>" then one row per x value (series are assumed to be
// sampled on the same grid; missing values render empty).
func (f *Figure) CSV() string {
	header := "x"
	for _, s := range f.Series {
		header += "," + s.Name
	}
	// Union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	out := header + "\n"
	for _, x := range xs {
		row := trimFloat(x)
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row += "," + trimFloat(y)
			} else {
				row += ","
			}
		}
		out += row + "\n"
	}
	return out
}

// trimFloat formats a float compactly (integers without decimals).
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
