package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Lint checks text against the Prometheus exposition-format (v0.0.4)
// invariants this repo relies on and returns every violation found:
//
//   - every sample belongs to a family announced by # HELP and # TYPE
//     lines, HELP before TYPE, both before the first sample;
//   - a family's lines are contiguous and no family name repeats;
//   - metric and label names are well-formed, sample values parse;
//   - histogram families carry the full _bucket/_sum/_count triple per
//     child, bucket counts are cumulative (monotone non-decreasing in
//     le order), and the +Inf bucket equals _count.
//
// It is intentionally a validator for our own hand-rendered output, not
// a general exposition parser: it accepts exactly the subset we emit
// and flags anything surprising.
func Lint(text string) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type family struct {
		name     string
		typ      string
		hasHelp  bool
		hasType  bool
		closed   bool
		declLine int
		// histogram bookkeeping, keyed by the child's non-le label set
		buckets map[string][]histSample
		sums    map[string]float64
		counts  map[string]uint64
		hasSum  map[string]bool
		hasCnt  map[string]bool
	}
	families := map[string]*family{}
	var cur *family

	open := func(name string, line int) *family {
		if f, ok := families[name]; ok {
			if f.closed {
				fail(line, "family %s reappears after other families (non-contiguous or duplicate)", name)
			}
			return f
		}
		f := &family{
			name: name, declLine: line,
			buckets: map[string][]histSample{},
			sums:    map[string]float64{}, counts: map[string]uint64{},
			hasSum: map[string]bool{}, hasCnt: map[string]bool{},
		}
		families[name] = f
		return f
	}
	switchTo := func(f *family) {
		if cur != nil && cur != f {
			cur.closed = true
		}
		cur = f
	}

	lines := strings.Split(text, "\n")
	for i, raw := range lines {
		line := i + 1
		if raw == "" {
			continue
		}
		if strings.HasPrefix(raw, "# HELP ") {
			rest := strings.TrimPrefix(raw, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				fail(line, "malformed HELP line")
				continue
			}
			f := open(name, line)
			if f.hasHelp {
				fail(line, "duplicate HELP for %s", name)
			}
			if f.hasType {
				fail(line, "HELP for %s after its TYPE", name)
			}
			f.hasHelp = true
			switchTo(f)
			continue
		}
		if strings.HasPrefix(raw, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(raw, "# TYPE "))
			if len(parts) != 2 {
				fail(line, "malformed TYPE line")
				continue
			}
			name, typ := parts[0], parts[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail(line, "unknown metric type %q for %s", typ, name)
			}
			f := open(name, line)
			if f.hasType {
				fail(line, "duplicate TYPE for %s", name)
			}
			if !f.hasHelp {
				fail(line, "TYPE for %s without preceding HELP", name)
			}
			f.hasType = true
			f.typ = typ
			switchTo(f)
			continue
		}
		if strings.HasPrefix(raw, "#") {
			continue // plain comment
		}

		name, labels, value, err := parseSample(raw)
		if err != nil {
			fail(line, "%v", err)
			continue
		}
		base := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name {
				if f, ok := families[trimmed]; ok && f.typ == "histogram" {
					base, suffix = trimmed, sfx
				}
				break
			}
		}
		f, ok := families[base]
		if !ok {
			fail(line, "sample %s has no HELP/TYPE declaration", name)
			continue
		}
		if !f.hasType {
			fail(line, "sample %s before its TYPE line", name)
		}
		if f.closed {
			fail(line, "sample %s outside its contiguous family block", name)
		}
		switchTo(f)

		if f.typ == "histogram" {
			child, le, hasLE := splitLE(labels)
			switch suffix {
			case "_bucket":
				if !hasLE {
					fail(line, "%s_bucket sample missing le label", base)
					continue
				}
				bound, perr := parseLE(le)
				if perr != nil {
					fail(line, "%s: %v", name, perr)
					continue
				}
				f.buckets[child] = append(f.buckets[child], histSample{bound, uint64(value), line})
			case "_sum":
				f.sums[child], f.hasSum[child] = value, true
			case "_count":
				f.counts[child], f.hasCnt[child] = uint64(value), true
			default:
				fail(line, "histogram %s has non-histogram sample %s", base, name)
			}
		}
	}

	// Histogram triple + cumulativity checks.
	for _, f := range families {
		if !f.hasHelp || !f.hasType {
			errs = append(errs, fmt.Errorf("family %s (line %d) missing %s", f.name, f.declLine,
				map[bool]string{true: "TYPE", false: "HELP"}[f.hasHelp]))
		}
		if f.typ != "histogram" {
			continue
		}
		// A declared family with zero samples is valid (a labeled vec
		// before any traffic); a family with samples needs the full
		// _bucket/_sum/_count triple per child, checked below.
		if len(f.buckets) == 0 && (len(f.hasSum) > 0 || len(f.hasCnt) > 0) {
			errs = append(errs, fmt.Errorf("histogram %s has _sum/_count but no _bucket samples", f.name))
		}
		for child, bs := range f.buckets {
			tag := f.name
			if child != "" {
				tag = fmt.Sprintf("%s{%s}", f.name, child)
			}
			var prev float64 = math.Inf(-1)
			var prevCount uint64
			var infCount uint64
			sawInf := false
			for _, b := range bs {
				if b.le <= prev {
					errs = append(errs, fmt.Errorf("line %d: %s buckets not in ascending le order", b.line, tag))
				}
				if b.count < prevCount {
					errs = append(errs, fmt.Errorf("line %d: %s bucket counts not cumulative", b.line, tag))
				}
				prev, prevCount = b.le, b.count
				if math.IsInf(b.le, +1) {
					sawInf, infCount = true, b.count
				}
			}
			if !sawInf {
				errs = append(errs, fmt.Errorf("%s missing le=\"+Inf\" bucket", tag))
			}
			if !f.hasCnt[child] {
				errs = append(errs, fmt.Errorf("%s missing _count sample", tag))
			} else if sawInf && infCount != f.counts[child] {
				errs = append(errs, fmt.Errorf("%s +Inf bucket (%d) != _count (%d)", tag, infCount, f.counts[child]))
			}
			if !f.hasSum[child] {
				errs = append(errs, fmt.Errorf("%s missing _sum sample", tag))
			}
		}
		for child := range f.hasSum {
			if _, ok := f.buckets[child]; !ok {
				errs = append(errs, fmt.Errorf("%s{%s} has _sum but no buckets", f.name, child))
			}
		}
	}
	return errs
}

type histSample struct {
	le    float64
	count uint64
	line  int
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidLabelName reports whether name is a legal exposition label name.
// A timeline series name (SeriesDef.Name) obeys the same rule, since it
// becomes a JSON key and a CSV column; the simulator's series test
// checks its table with this function.
func ValidLabelName(name string) bool { return labelNameRE.MatchString(name) }

// parseSample splits `name{labels} value` into parts. labels is the raw
// text between the braces ("" when absent).
func parseSample(raw string) (name, labels string, value float64, err error) {
	rest := raw
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in sample %q", raw)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return "", "", 0, fmt.Errorf("sample %q has no value", raw)
		}
	}
	if !metricNameRE.MatchString(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	for _, pair := range splitLabelPairs(labels) {
		ln, _, ok := strings.Cut(pair, "=")
		if !ok || !labelNameRE.MatchString(ln) {
			return "", "", 0, fmt.Errorf("invalid label pair %q in %s", pair, name)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", "", 0, fmt.Errorf("sample %q has malformed value", raw)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("sample %s value %q: %v", name, fields[0], err)
	}
	return name, labels, value, nil
}

// splitLabelPairs splits a raw label body on commas outside quotes.
func splitLabelPairs(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	var b strings.Builder
	inQuote, escaped := false, false
	for _, r := range labels {
		switch {
		case escaped:
			b.WriteRune(r)
			escaped = false
		case r == '\\' && inQuote:
			b.WriteRune(r)
			escaped = true
		case r == '"':
			b.WriteRune(r)
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(r)
		}
	}
	out = append(out, b.String())
	return out
}

// splitLE removes the le pair from a raw label body, returning the
// remaining pairs (sorted, so child identity is order-independent) and
// the le value.
func splitLE(labels string) (child, le string, ok bool) {
	var rest []string
	for _, pair := range splitLabelPairs(labels) {
		if v, found := strings.CutPrefix(pair, "le="); found {
			le, ok = strings.Trim(v, `"`), true
			continue
		}
		rest = append(rest, pair)
	}
	// Canonicalize child identity independent of label order.
	sortStrings(rest)
	return strings.Join(rest, ","), le, ok
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(+1), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return f, nil
}
