package telemetry

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"
)

// This file renders self-contained single-file HTML reports: all data is
// inlined as SVG + tables, no scripts, no external assets. Charts follow
// the house dataviz rules — categorical hues in fixed slot order, 2px
// lines, hairline grids, a sequential single-hue ramp for magnitude,
// text in text tokens (never series colors), light/dark via CSS custom
// properties, an SVG <title> hover layer, and a <details> table view for
// every chart so no value is gated behind color perception.

// Categorical palette, fixed slot order (light, dark).
var seriesColors = [8][2]string{
	{"#2a78d6", "#3987e5"}, // 1 blue
	{"#eb6834", "#d95926"}, // 2 orange
	{"#1baf7a", "#199e70"}, // 3 aqua
	{"#eda100", "#c98500"}, // 4 yellow
	{"#e87ba4", "#d55181"}, // 5 magenta
	{"#008300", "#008300"}, // 6 green
	{"#4a3aa7", "#9085e9"}, // 7 violet
	{"#e34948", "#e66767"}, // 8 red
}

const reportCSS = `
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px;
  margin: 0 0 16px;
  max-width: 960px;
}
.viz-root .legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 0 0; font-size: 12px; color: var(--text-secondary); }
.viz-root .legend .key { display: inline-flex; align-items: center; gap: 6px; }
.viz-root .legend .swatch { width: 12px; height: 12px; border-radius: 3px; display: inline-block; }
.viz-root svg text { font-family: inherit; }
.viz-root details { margin-top: 8px; font-size: 12px; }
.viz-root details summary { color: var(--text-muted); cursor: pointer; }
.viz-root table { border-collapse: collapse; margin-top: 8px; font-size: 12px; }
.viz-root th, .viz-root td { padding: 3px 10px; text-align: right; font-variant-numeric: tabular-nums; }
.viz-root th { color: var(--text-secondary); font-weight: 600; border-bottom: 1px solid var(--grid); }
.viz-root th:first-child, .viz-root td:first-child { text-align: left; }
.viz-root .meta { font-size: 12px; color: var(--text-secondary); }
.viz-root .meta td { text-align: left; }
`

// HTMLDoc accumulates report sections and writes one self-contained page.
type HTMLDoc struct {
	title    string
	subtitle string
	refresh  int
	body     strings.Builder
}

// NewHTMLDoc starts a report page with the given title and subtitle.
func NewHTMLDoc(title, subtitle string) *HTMLDoc {
	return &HTMLDoc{title: title, subtitle: subtitle}
}

// Section appends a heading followed by pre-rendered card content.
func (d *HTMLDoc) Section(heading, inner string) {
	if heading != "" {
		fmt.Fprintf(&d.body, "<h2>%s</h2>\n", html.EscapeString(heading))
	}
	d.body.WriteString(`<div class="card">` + "\n" + inner + "\n</div>\n")
}

// SetRefresh makes the page reload itself every n seconds (n <= 0
// disables) — used by live dashboards; static reports leave it off.
func (d *HTMLDoc) SetRefresh(n int) { d.refresh = n }

// Render writes the complete page.
func (d *HTMLDoc) Render(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	if d.refresh > 0 {
		fmt.Fprintf(&b, "<meta http-equiv=\"refresh\" content=\"%d\">\n", d.refresh)
	}
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(d.title))
	b.WriteString("<style>" + reportCSS + "</style>\n</head>\n<body class=\"viz-root\">\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(d.title))
	if d.subtitle != "" {
		fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", html.EscapeString(d.subtitle))
	}
	b.WriteString(d.body.String())
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ChartSeries is one named series handed to a chart renderer, bound to a
// categorical palette slot (0-based, fixed order — never cycled).
type ChartSeries struct {
	Label  string
	Slot   int
	Points []float64
}

func slotVar(slot int) string {
	if slot < 0 || slot >= len(seriesColors) {
		slot = 0
	}
	return fmt.Sprintf("var(--s%d)", slot+1)
}

// fmtNum renders a value compactly for labels and tables.
func fmtNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case math.Abs(v) >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// niceCeil rounds up to a clean axis maximum (1/2/5 × 10^k).
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 5, 10} {
		if m*mag >= v {
			return m * mag
		}
	}
	return 10 * mag
}

const (
	chartW  = 900.0
	chartH  = 220.0
	padL    = 56.0
	padR    = 12.0
	padT    = 10.0
	padB    = 26.0
	plotW   = chartW - padL - padR
	plotH   = chartH - padT - padB
	gridN   = 4 // horizontal gridlines
	xTicksN = 6
)

func xScale(i, n int) float64 {
	if n <= 1 {
		return padL
	}
	return padL + plotW*float64(i)/float64(n-1)
}

func yScale(v, ymax float64) float64 {
	if ymax <= 0 {
		ymax = 1
	}
	y := padT + plotH*(1-v/ymax)
	if y < padT {
		y = padT
	}
	if y > padT+plotH {
		y = padT + plotH
	}
	return y
}

// chartFrame renders gridlines, the baseline, and y/x tick labels.
func chartFrame(b *strings.Builder, times []uint64, ymax float64, yUnit string) {
	for g := 0; g <= gridN; g++ {
		v := ymax * float64(g) / float64(gridN)
		y := yScale(v, ymax)
		if g > 0 { // baseline drawn separately
			fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`+"\n",
				padL, y, padL+plotW, y)
		}
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)" text-anchor="end">%s</text>`+"\n",
			padL-6, y+4, fmtNum(v))
	}
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--baseline)" stroke-width="1"/>`+"\n",
		padL, padT+plotH, padL+plotW, padT+plotH)
	n := len(times)
	if n > 0 {
		step := (n - 1) / (xTicksN - 1)
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			x := xScale(i, n)
			fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)" text-anchor="middle">%s</text>`+"\n",
				x, padT+plotH+16, fmtNum(float64(times[i])))
		}
	}
	if yUnit != "" {
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)">%s</text>`+"\n",
			padL, padT-1, html.EscapeString(yUnit))
	}
}

// legendHTML renders the legend row (always present for ≥2 series).
func legendHTML(series []ChartSeries) string {
	if len(series) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteString(`<div class="legend">`)
	for _, s := range series {
		fmt.Fprintf(&b, `<span class="key"><span class="swatch" style="background:%s"></span>%s</span>`,
			slotVar(s.Slot), html.EscapeString(s.Label))
	}
	b.WriteString("</div>\n")
	return b.String()
}

// tableHTML renders the <details> data-table view backing a chart.
func tableHTML(times []uint64, series []ChartSeries) string {
	var b strings.Builder
	b.WriteString("<details><summary>Data table</summary><table><tr><th>cycle</th>")
	for _, s := range series {
		fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(s.Label))
	}
	b.WriteString("</tr>\n")
	for i, t := range times {
		fmt.Fprintf(&b, "<tr><td>%d</td>", t)
		for _, s := range series {
			v := 0.0
			if i < len(s.Points) {
				v = s.Points[i]
			}
			fmt.Fprintf(&b, "<td>%s</td>", fmtNum(v))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table></details>\n")
	return b.String()
}

// LineChart renders a multi-series line chart (2px lines, hover titles on
// ≥8px invisible hit targets, legend, table view) as a card-ready fragment.
func LineChart(times []uint64, series []ChartSeries, yUnit string) string {
	ymax := 0.0
	for _, s := range series {
		for _, v := range s.Points {
			if v > ymax {
				ymax = v
			}
		}
	}
	ymax = niceCeil(ymax)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img">`+"\n", chartW, chartH)
	chartFrame(&b, times, ymax, yUnit)
	n := len(times)
	for _, s := range series {
		var path strings.Builder
		for i, v := range s.Points {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xScale(i, n), yScale(v, ymax))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>`+"\n",
			strings.TrimSpace(path.String()), slotVar(s.Slot))
	}
	// Hover layer: one invisible circle per point with a <title> tooltip.
	for _, s := range series {
		for i, v := range s.Points {
			if i >= n {
				break
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="6" fill="transparent"><title>%s @ %d: %s</title></circle>`+"\n",
				xScale(i, n), yScale(v, ymax), html.EscapeString(s.Label), times[i], fmtNum(v))
		}
	}
	b.WriteString("</svg>\n")
	b.WriteString(legendHTML(series))
	b.WriteString(tableHTML(times, series))
	return b.String()
}

// StackedAreaChart renders series stacked bottom-up in slot order: fills
// at 35% opacity separated by their own 2px boundary lines in the full
// series hue, hover titles carrying the per-series value, legend, table.
func StackedAreaChart(times []uint64, series []ChartSeries, yUnit string) string {
	n := len(times)
	totals := make([]float64, n)
	for _, s := range series {
		for i := 0; i < n && i < len(s.Points); i++ {
			totals[i] += s.Points[i]
		}
	}
	ymax := 0.0
	for _, t := range totals {
		if t > ymax {
			ymax = t
		}
	}
	ymax = niceCeil(ymax)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img">`+"\n", chartW, chartH)
	chartFrame(&b, times, ymax, yUnit)
	base := make([]float64, n)
	for _, s := range series {
		top := make([]float64, n)
		for i := 0; i < n; i++ {
			v := 0.0
			if i < len(s.Points) {
				v = s.Points[i]
			}
			top[i] = base[i] + v
		}
		// Fill: wash between base and top.
		var path strings.Builder
		for i := 0; i < n; i++ {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xScale(i, n), yScale(top[i], ymax))
		}
		for i := n - 1; i >= 0; i-- {
			fmt.Fprintf(&path, "L%.1f %.1f ", xScale(i, n), yScale(base[i], ymax))
		}
		fmt.Fprintf(&b, `<path d="%sZ" fill="%s" fill-opacity="0.35" stroke="none"/>`+"\n",
			strings.TrimSpace(path.String()), slotVar(s.Slot))
		// Boundary line in the full hue.
		var line strings.Builder
		for i := 0; i < n; i++ {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&line, "%s%.1f %.1f ", cmd, xScale(i, n), yScale(top[i], ymax))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`+"\n",
			strings.TrimSpace(line.String()), slotVar(s.Slot))
		// Hover layer on the boundary.
		for i := 0; i < n; i++ {
			v := 0.0
			if i < len(s.Points) {
				v = s.Points[i]
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="6" fill="transparent"><title>%s @ %d: %s</title></circle>`+"\n",
				xScale(i, n), yScale(top[i], ymax), html.EscapeString(s.Label), times[i], fmtNum(v))
		}
		base = top
	}
	b.WriteString("</svg>\n")
	b.WriteString(legendHTML(series))
	b.WriteString(tableHTML(times, series))
	return b.String()
}

// Heatmap renders a row×column matrix with a sequential single-hue ramp:
// cell magnitude maps to the fill-opacity of the slot-1 blue, so light
// and dark mode each get a valid ramp from their own surface. Cells carry
// hover titles; a table view backs the chart.
func Heatmap(rowLabels []string, colTimes []uint64, values [][]float64, unit string) string {
	rows := len(rowLabels)
	cols := len(colTimes)
	if rows == 0 || cols == 0 {
		return `<p class="meta">no data</p>`
	}
	vmax := 0.0
	for _, row := range values {
		for _, v := range row {
			if v > vmax {
				vmax = v
			}
		}
	}
	if vmax == 0 {
		vmax = 1
	}
	labelW := 64.0
	cellH := 16.0
	gap := 2.0
	w := chartW
	gridW := w - labelW - padR
	h := float64(rows)*(cellH+gap) + padT + padB
	cw := gridW / float64(cols)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img">`+"\n", w, h)
	for r := 0; r < rows; r++ {
		y := padT + float64(r)*(cellH+gap)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-secondary)" text-anchor="end">%s</text>`+"\n",
			labelW-6, y+cellH-4, html.EscapeString(rowLabels[r]))
		for c := 0; c < cols; c++ {
			v := 0.0
			if r < len(values) && c < len(values[r]) {
				v = values[r][c]
			}
			op := 0.06 + 0.94*(v/vmax)
			if v == 0 {
				op = 0.04
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" rx="2" fill="var(--s1)" fill-opacity="%.3f"><title>%s @ %d: %s%s</title></rect>`+"\n",
				labelW+float64(c)*cw, y, cw-gap, cellH, op,
				html.EscapeString(rowLabels[r]), colTimes[c], fmtNum(v), unit)
		}
	}
	// X ticks under the grid.
	step := (cols - 1) / (xTicksN - 1)
	if step < 1 {
		step = 1
	}
	for c := 0; c < cols; c += step {
		x := labelW + (float64(c)+0.5)*cw
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="var(--text-muted)" text-anchor="middle">%s</text>`+"\n",
			x, h-8, fmtNum(float64(colTimes[c])))
	}
	b.WriteString("</svg>\n")
	// Table view.
	b.WriteString("<details><summary>Data table</summary><table><tr><th></th>")
	for c := 0; c < cols; c += step {
		fmt.Fprintf(&b, "<th>%d</th>", colTimes[c])
	}
	b.WriteString("</tr>\n")
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&b, "<tr><td>%s</td>", html.EscapeString(rowLabels[r]))
		for c := 0; c < cols; c += step {
			v := 0.0
			if r < len(values) && c < len(values[r]) {
				v = values[r][c]
			}
			fmt.Fprintf(&b, "<td>%s</td>", fmtNum(v))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table></details>\n")
	return b.String()
}

// QuantileTable renders the latency-histogram summary table.
func QuantileTable(hists []*Histogram) string {
	var b strings.Builder
	b.WriteString("<table><tr><th>histogram</th><th>count</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>\n")
	for _, h := range hists {
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>\n",
			html.EscapeString(h.Name()), h.Count(), fmtNum(h.Mean()),
			fmtNum(h.Quantile(0.50)), fmtNum(h.Quantile(0.90)), fmtNum(h.Quantile(0.99)), h.Max())
	}
	b.WriteString("</table>\n")
	return b.String()
}

// MetaTable renders the run-metadata key/value table in sorted key order.
func MetaTable(pairs [][2]string) string {
	var b strings.Builder
	b.WriteString(`<table class="meta">`)
	for _, kv := range pairs {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(kv[0]), html.EscapeString(kv[1]))
	}
	b.WriteString("</table>\n")
	return b.String()
}

// seriesMatching collects the registry series whose name starts with
// prefix, in canonical order, returning the suffixes as labels.
func (r *Registry) seriesMatching(prefix string) (labels []string, rows [][]float64) {
	r.VisitSeries(func(s *Series) {
		if strings.HasPrefix(s.Name(), prefix) {
			labels = append(labels, strings.TrimPrefix(s.Name(), prefix))
			rows = append(rows, s.Points())
		}
	})
	return labels, rows
}

// chartSeriesFor builds ChartSeries from named registry series, assigning
// palette slots in the order given. Series absent from the registry are
// skipped (their slot is skipped with them: color follows the entity).
func (r *Registry) chartSeriesFor(names []string, labels []string) []ChartSeries {
	var out []ChartSeries
	for i, name := range names {
		s := r.SeriesByName(name)
		if s == nil {
			continue
		}
		out = append(out, ChartSeries{Label: labels[i], Slot: i, Points: s.Points()})
	}
	return out
}

// WriteHTML renders the registry as a self-contained run report: run
// metadata, the interval cycle-breakdown stack, network traffic, link
// utilization heatmaps, protocol/buffer occupancy, directory state mix,
// and the latency quantile table.
func (r *Registry) WriteHTML(w io.Writer, title string) error {
	if r == nil {
		return fmt.Errorf("telemetry: rendering a nil registry")
	}
	sub := fmt.Sprintf("%d samples every %d cycles · schema %s", r.Samples(), r.Interval(), SchemaVersion)
	doc := NewHTMLDoc(title, sub)
	times := r.Times()

	var meta [][2]string
	for _, k := range sortedKeys(r.meta) {
		meta = append(meta, [2]string{k, r.meta[k]})
	}
	if len(meta) > 0 {
		doc.Section("Run", MetaTable(meta))
	}

	// Cycle breakdown: the four stall categories as an interval stack.
	breakdown := r.chartSeriesFor(
		[]string{"stall.cpu", "stall.read", "stall.write", "stall.sync"},
		[]string{"busy", "read stall", "write stall", "sync stall"})
	if len(breakdown) > 0 {
		doc.Section("Cycle breakdown per interval", StackedAreaChart(times, breakdown, "cycles"))
	}

	traffic := r.chartSeriesFor(
		[]string{"net.msgs", "net.bytes"},
		[]string{"messages", "bytes"})
	if len(traffic) > 0 {
		doc.Section("Network traffic per interval", LineChart(times, traffic, "per interval"))
	}

	if labels, rows := r.seriesMatching("net.out_busy."); len(labels) > 0 {
		doc.Section("Link utilization: output-port busy cycles per interval", Heatmap(labels, times, rows, " cyc"))
	}
	if labels, rows := r.seriesMatching("net.backlog."); len(labels) > 0 {
		doc.Section("NIC backlog (committed cycles at sample)", Heatmap(labels, times, rows, " cyc"))
	}
	if labels, rows := r.seriesMatching("wb.depth."); len(labels) > 0 {
		doc.Section("Write-buffer depth per node", Heatmap(labels, times, rows, " entries"))
	}
	if labels, rows := r.seriesMatching("cb.depth."); len(labels) > 0 {
		doc.Section("Coalescing-buffer depth per node", Heatmap(labels, times, rows, " entries"))
	}

	proto := r.chartSeriesFor(
		[]string{"proto.pending_notices", "proto.acquire_waiters"},
		[]string{"pending notices", "acquire waiters"})
	if len(proto) > 0 {
		doc.Section("Protocol occupancy at sample", LineChart(times, proto, "count"))
	}

	dir := r.chartSeriesFor(
		[]string{"dir.uncached", "dir.shared", "dir.dirty", "dir.weak"},
		[]string{"uncached", "shared", "dirty", "weak"})
	if len(dir) > 0 {
		doc.Section("Directory state mix at sample", StackedAreaChart(times, dir, "blocks"))
	}

	var hists []*Histogram
	r.VisitHistograms(func(h *Histogram) { hists = append(hists, h) })
	if len(hists) > 0 {
		doc.Section("Latency quantiles (cycles)", QuantileTable(hists))
	}

	return doc.Render(w)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
