package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4), written and validated without
// any client library so the repo stays dependency-free. Metric names are
// derived from registry names by prefixing "prdrb_" and mapping every
// character outside [a-zA-Z0-9_] to '_' ("engine.events_processed" ->
// "prdrb_engine_events_processed"); the raw registry name is preserved in
// the HELP line. Output is deterministically ordered (sorted by raw name)
// so two expositions of the same state are byte-identical.

// ExpoContentType is the Content-Type of the exposition endpoint.
const ExpoContentType = "text/plain; version=0.0.4; charset=utf-8"

// expoName sanitizes a registry name into a legal Prometheus metric name.
func expoName(raw string) string {
	var b strings.Builder
	b.Grow(len(raw) + 6)
	b.WriteString("prdrb_")
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text per the exposition format: backslash and
// newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// expoFloat renders a float the way Prometheus expects: shortest exact
// decimal, with +Inf/-Inf/NaN spelled out.
func expoFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteExposition renders scalar metrics (exposed as gauges) and
// histogram snapshots in Prometheus text format. Both maps are iterated in
// sorted raw-name order, so output is deterministic.
func WriteExposition(w io.Writer, scalars map[string]int64, hists map[string]HistSnapshot) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(scalars))
	for n := range scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, raw := range names {
		name := expoName(raw)
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("prdrb metric "+raw))
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, scalars[raw])
	}
	hnames := make([]string, 0, len(hists))
	for n := range hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, raw := range hnames {
		h := hists[raw]
		name := expoName(raw)
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("prdrb histogram "+raw))
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for i, b := range h.Bounds {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, escapeLabel(expoFloat(b)), h.Counts[i])
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", name, expoFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count)
	}
	return bw.Flush()
}

// histState accumulates one histogram's samples during validation.
type histState struct {
	lastLe    float64
	lastCount int64
	haveInf   bool
	infCount  int64
	count     int64
	haveCount bool
	buckets   int
}

// ValidateExposition parses a Prometheus text-format stream and reports
// the first structural error: illegal metric names, unparsable values,
// samples typed before their TYPE line, histograms whose bucket counts are
// not cumulative (non-decreasing over ascending `le`), and histograms
// whose +Inf bucket disagrees with their _count series. Returns the number
// of samples seen.
func ValidateExposition(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	types := map[string]string{}
	hstate := map[string]*histState{}
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !validMetricName(name) {
			return samples, fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
		}
		samples++
		base, suffix := histBase(name)
		if suffix == "" || types[base] != "histogram" {
			continue
		}
		st := hstate[base]
		if st == nil {
			st = &histState{lastLe: math.Inf(-1)}
			hstate[base] = st
		}
		switch suffix {
		case "_bucket":
			le, ok := labels["le"]
			if !ok {
				return samples, fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, name)
			}
			bound, err := parseLe(le)
			if err != nil {
				return samples, fmt.Errorf("line %d: %w", lineNo, err)
			}
			c := int64(value)
			if math.IsInf(bound, 1) {
				st.haveInf = true
				st.infCount = c
			}
			if bound <= st.lastLe {
				return samples, fmt.Errorf("line %d: %s buckets out of order (le=%v after le=%v)", lineNo, base, bound, st.lastLe)
			}
			if c < st.lastCount {
				return samples, fmt.Errorf("line %d: %s bucket counts not cumulative (%d after %d)", lineNo, base, c, st.lastCount)
			}
			st.lastLe, st.lastCount = bound, c
			st.buckets++
		case "_count":
			st.count = int64(value)
			st.haveCount = true
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	for base, st := range hstate {
		if st.buckets == 0 {
			continue
		}
		if !st.haveInf {
			return samples, fmt.Errorf("histogram %s has no +Inf bucket", base)
		}
		if st.haveCount && st.infCount != st.count {
			return samples, fmt.Errorf("histogram %s: +Inf bucket %d != count %d", base, st.infCount, st.count)
		}
	}
	return samples, nil
}

// parseSample splits `name{labels} value` into its parts. Timestamps
// (an optional trailing integer) are accepted and ignored.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest[i:], '}')
		if j < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parseLabels(rest[i+1 : i+j])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[i+j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, 0, fmt.Errorf("sample %q has no value", line)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q has %d value fields, want 1 (plus optional timestamp)", line, len(fields))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels reads a `k="v",k2="v2"` label body.
func parseLabels(body string) (map[string]string, error) {
	out := map[string]string{}
	body = strings.TrimSpace(body)
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := strings.TrimSpace(body[eq+1:])
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		// Scan the quoted value honoring backslash escapes.
		var val strings.Builder
		i := 1
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = val.String()
		body = strings.TrimSpace(rest[i+1:])
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return out, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLe(s string) (float64, error) {
	v, err := parseValue(s)
	if err != nil {
		return 0, fmt.Errorf("bad le label %q: %w", s, err)
	}
	return v, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// histBase splits a histogram series name into its base metric and suffix
// ("_bucket", "_sum", "_count"); suffix is "" for non-histogram series.
func histBase(name string) (base, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf
		}
	}
	return name, ""
}
