package telemetry

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The checked-in schemas the emitted artifacts validate against. They are
// standard JSON Schema (draft-07 subset) so external tooling can consume
// them too; the in-tree validator below implements exactly the subset the
// schemas use, keeping the repo dependency-free.

//go:embed schema/trace-event.schema.json
var traceEventSchemaJSON []byte

//go:embed schema/run-manifest.schema.json
var runManifestSchemaJSON []byte

// ValidateAgainstSchema checks decoded JSON doc against schemaJSON. The
// validator supports the draft-07 subset the embedded schemas use: type,
// enum, required, properties, additionalProperties (false or a schema),
// items, and minimum.
func ValidateAgainstSchema(schemaJSON []byte, doc any) error {
	var schema map[string]any
	dec := json.NewDecoder(bytes.NewReader(schemaJSON))
	dec.UseNumber()
	if err := dec.Decode(&schema); err != nil {
		return fmt.Errorf("telemetry: bad schema: %w", err)
	}
	return validateNode(schema, doc, "$")
}

// decodeJSON decodes b preserving number fidelity (json.Number, so
// 64-bit integers survive the round trip).
func decodeJSON(b []byte, into *any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		return err
	}
	// Reject trailing garbage after the value.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

func validateNode(schema map[string]any, doc any, path string) error {
	if typ, ok := schema["type"].(string); ok {
		if err := checkType(typ, doc, path); err != nil {
			return err
		}
	}
	if enum, ok := schema["enum"].([]any); ok {
		if err := checkEnum(enum, doc, path); err != nil {
			return err
		}
	}
	if min, ok := schema["minimum"].(json.Number); ok {
		if err := checkMinimum(min, doc, path); err != nil {
			return err
		}
	}
	if obj, ok := doc.(map[string]any); ok {
		if err := validateObject(schema, obj, path); err != nil {
			return err
		}
	}
	if arr, ok := doc.([]any); ok {
		if items, ok := schema["items"].(map[string]any); ok {
			for i, it := range arr {
				if err := validateNode(items, it, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validateObject(schema map[string]any, obj map[string]any, path string) error {
	props, _ := schema["properties"].(map[string]any)
	if req, ok := schema["required"].([]any); ok {
		for _, r := range req {
			name, _ := r.(string)
			if _, present := obj[name]; !present {
				return fmt.Errorf("%s: missing required property %q", path, name)
			}
		}
	}
	for name, val := range obj {
		sub, known := props[name].(map[string]any)
		if known {
			if err := validateNode(sub, val, path+"."+name); err != nil {
				return err
			}
			continue
		}
		switch ap := schema["additionalProperties"].(type) {
		case bool:
			if !ap {
				return fmt.Errorf("%s: unknown property %q", path, name)
			}
		case map[string]any:
			if err := validateNode(ap, val, path+"."+name); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkType(typ string, doc any, path string) error {
	ok := false
	switch typ {
	case "object":
		_, ok = doc.(map[string]any)
	case "array":
		_, ok = doc.([]any)
	case "string":
		_, ok = doc.(string)
	case "boolean":
		_, ok = doc.(bool)
	case "number":
		_, ok = doc.(json.Number)
	case "integer":
		if n, isNum := doc.(json.Number); isNum {
			if _, err := n.Int64(); err == nil {
				ok = true
			} else if f, err := n.Float64(); err == nil {
				// Large uint64s overflow Int64 but are still integral.
				ok = f == math.Trunc(f)
			}
		}
	case "null":
		ok = doc == nil
	default:
		return fmt.Errorf("%s: schema uses unsupported type %q", path, typ)
	}
	if !ok {
		return fmt.Errorf("%s: want %s, got %T (%v)", path, typ, doc, doc)
	}
	return nil
}

func checkEnum(enum []any, doc any, path string) error {
	for _, e := range enum {
		if es, ok := e.(string); ok {
			if ds, ok := doc.(string); ok && ds == es {
				return nil
			}
		}
	}
	return fmt.Errorf("%s: value %v not in enum", path, doc)
}

func checkMinimum(min json.Number, doc any, path string) error {
	n, ok := doc.(json.Number)
	if !ok {
		return nil // type check reports the real problem
	}
	nv, err1 := n.Float64()
	mv, err2 := min.Float64()
	if err1 != nil || err2 != nil {
		return nil
	}
	if nv < mv {
		return fmt.Errorf("%s: value %v below minimum %v", path, n, min)
	}
	return nil
}

// ValidateTraceLine validates one JSONL line against the trace-event
// schema.
func ValidateTraceLine(line []byte) error {
	var doc any
	if err := decodeJSON(line, &doc); err != nil {
		return err
	}
	return ValidateAgainstSchema(traceEventSchemaJSON, doc)
}

// ValidateTrace validates every line of a JSONL trace stream and returns
// the number of events seen.
func ValidateTrace(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := ValidateTraceLine(line); err != nil {
			return n, fmt.Errorf("line %d: %w", n+1, err)
		}
		n++
	}
	return n, sc.Err()
}

// ValidateTraceFile validates a JSONL trace file against the trace-event
// schema, returning the number of events.
func ValidateTraceFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ValidateTrace(f)
}

// ValidateManifestBytes validates a serialized run manifest against the
// run-manifest schema.
func ValidateManifestBytes(b []byte) error {
	var doc any
	if err := decodeJSON(b, &doc); err != nil {
		return err
	}
	if err := ValidateAgainstSchema(runManifestSchemaJSON, doc); err != nil {
		return err
	}
	// The schema field must match what this code writes (enum already
	// pins it; double-check for a clearer error on version skew).
	if m, ok := doc.(map[string]any); ok {
		if s, _ := m["schema"].(string); !strings.HasPrefix(s, "prdrb/run-manifest/") {
			return fmt.Errorf("manifest schema id %q is not a run manifest", s)
		}
	}
	return nil
}

// ValidateManifestFile validates a run-manifest.json file.
func ValidateManifestFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return ValidateManifestBytes(b)
}
