package client

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// This file is the client's decoder for 200 bodies. The server writes
// every field of a SimResponse, in declaration order, with no
// whitespace (encoding/json's encoder), so the decoder walks the
// destination type in that order and matches each key byte for byte
// instead of scanning the body twice and looking keys up as
// json.Unmarshal does. Anything outside that shape falls back to
// json.Unmarshal, so every body decodes exactly as json.Unmarshal
// decodes it (FuzzDecodeSimResponse).

// decode decodes data into dst, a non-nil pointer to a zero value: by
// the fixed-order walk when data has exactly the shape the server
// writes, by json.Unmarshal otherwise. fast reports which.
func decode(data []byte, dst any) (fast bool, err error) {
	v := reflect.ValueOf(dst).Elem()
	if p := planOf(v.Type()); p != nil {
		d := decoder{data: data}
		if d.value(p, v) && d.end() {
			return true, nil
		}
		v.SetZero() // drop what the walk set before it stopped
	}
	return false, json.Unmarshal(data, dst)
}

// plan is how the walk decodes one type.
type plan struct {
	kind   reflect.Kind // Int and Uint stand for every width
	typ    reflect.Type
	elem   *plan   // Slice and Pointer
	fields []field // Struct, in declaration order
}

// field is one struct field the walk expects, with its key as the
// encoder writes it: `"name":`.
type field struct {
	index int
	key   string
	plan  *plan
}

// plans caches each type's plan; a nil *plan marks a type the walk
// leaves to json.Unmarshal.
var plans sync.Map // reflect.Type → *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := buildPlan(t, map[reflect.Type]bool{})
	plans.Store(t, p)
	return p
}

var (
	jsonUnmarshaler = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
	jsonNumber      = reflect.TypeOf(json.Number(""))
)

// buildPlan returns t's plan, or nil when json.Unmarshal would decode t
// by a rule the walk does not implement: custom unmarshalers, maps,
// interfaces, arrays, base64 byte slices, embedded or conflicting
// fields, the ",string" option, or a recursive type.
func buildPlan(t reflect.Type, visiting map[reflect.Type]bool) *plan {
	if visiting[t] || t == jsonNumber {
		return nil
	}
	for _, u := range []reflect.Type{jsonUnmarshaler, textUnmarshaler} {
		if t.Implements(u) || reflect.PointerTo(t).Implements(u) {
			return nil
		}
	}
	visiting[t] = true
	defer delete(visiting, t)
	p := &plan{kind: t.Kind(), typ: t}
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64:
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind = reflect.Int
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.kind = reflect.Uint
	case reflect.Slice, reflect.Pointer:
		if t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			return nil
		}
		if p.elem = buildPlan(t.Elem(), visiting); p.elem == nil {
			return nil
		}
	case reflect.Struct:
		seen := map[string]bool{}
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if sf.Anonymous {
				return nil
			}
			tag := sf.Tag.Get("json")
			if !sf.IsExported() || tag == "-" {
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = sf.Name
			}
			if !plainName(name) || seen[name] || strings.Contains(","+opts+",", ",string,") {
				return nil
			}
			seen[name] = true
			fp := buildPlan(sf.Type, visiting)
			if fp == nil {
				return nil
			}
			p.fields = append(p.fields, field{index: i, key: `"` + name + `":`, plan: fp})
		}
	default:
		return nil
	}
	return p
}

// plainName reports whether a key is written as itself, so that it can
// be matched byte for byte.
func plainName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return s != ""
}

// decoder is the walk's cursor. Each method reports whether the input
// at the cursor has the expected shape; any false sends the whole body
// to json.Unmarshal.
type decoder struct {
	data []byte
	i    int
}

// value decodes one value of p's type into v. null leaves v as it is,
// the zero value, which is what json.Unmarshal makes of null for a
// fresh destination of any type.
func (d *decoder) value(p *plan, v reflect.Value) bool {
	if d.literal("null") {
		return true
	}
	switch p.kind {
	case reflect.Struct:
		return d.object(p, v)
	case reflect.Slice:
		return d.array(p, v)
	case reflect.Pointer:
		e := reflect.New(p.elem.typ)
		if !d.value(p.elem, e.Elem()) {
			return false
		}
		v.Set(e)
		return true
	case reflect.String:
		s, ok := d.str()
		if ok {
			v.SetString(s)
		}
		return ok
	case reflect.Bool:
		if d.literal("true") {
			v.SetBool(true)
			return true
		}
		return d.literal("false")
	}
	num, ok := d.number()
	if !ok {
		return false
	}
	switch p.kind {
	case reflect.Int:
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
	case reflect.Uint:
		n, err := strconv.ParseUint(string(num), 10, 64)
		if err != nil || v.OverflowUint(n) {
			return false
		}
		v.SetUint(n)
	default: // Float32, Float64
		f, err := strconv.ParseFloat(string(num), p.typ.Bits())
		if err != nil || v.OverflowFloat(f) {
			return false
		}
		v.SetFloat(f)
	}
	return true
}

// object decodes a struct whose every field is present, in order.
func (d *decoder) object(p *plan, v reflect.Value) bool {
	if !d.char('{') {
		return false
	}
	for k := range p.fields {
		f := &p.fields[k]
		if k > 0 && !d.char(',') {
			return false
		}
		if !d.literal(f.key) || !d.value(f.plan, v.Field(f.index)) {
			return false
		}
	}
	return d.char('}')
}

// array decodes a slice; [] is an empty, non-nil slice, as in
// json.Unmarshal.
func (d *decoder) array(p *plan, v reflect.Value) bool {
	if !d.char('[') {
		return false
	}
	if d.char(']') {
		v.Set(reflect.MakeSlice(p.typ, 0, 0))
		return true
	}
	for n := 0; ; n++ {
		if n == v.Cap() {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		if !d.value(p.elem, v.Index(n)) {
			return false
		}
		if !d.char(',') {
			return d.char(']')
		}
	}
}

// str returns a string with no escapes, control bytes or non-ASCII
// bytes; json.Unmarshal decodes those.
func (d *decoder) str() (string, bool) {
	if !d.char('"') {
		return "", false
	}
	for j := d.i; j < len(d.data); j++ {
		switch c := d.data[j]; {
		case c == '"':
			s := string(d.data[d.i:j])
			d.i = j + 1
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// number returns the number at the cursor under JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter
// than strconv's: +1, 01, 1. and .5 are not numbers.
func (d *decoder) number() ([]byte, bool) {
	start, i := d.i, d.i
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case i < len(d.data) && '1' <= d.data[i] && d.data[i] <= '9':
		i = d.digits(i)
	default:
		return nil, false
	}
	if i < len(d.data) && d.data[i] == '.' {
		if j := d.digits(i + 1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		j := d.digits(i)
		if j == i {
			return nil, false
		}
		i = j
	}
	d.i = i
	return d.data[start:i], true
}

// digits returns the index past the run of digits starting at i.
func (d *decoder) digits(i int) int {
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	return i
}

// char consumes c if it is next.
func (d *decoder) char(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes s if it comes next.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.i >= len(s) && string(d.data[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// end reports whether only whitespace follows the cursor: the encoder
// ends a body with a newline.
func (d *decoder) end() bool {
	for ; d.i < len(d.data); d.i++ {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
