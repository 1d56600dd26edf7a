package client

import (
	"fmt"

	"repro/resp"
)

// The reply helpers convert a (Value, error) pair — the shape Do and
// Receive return — into Go types, passing errors through, in the idiom
// of redigo's redis.Int(conn.Do(…)).

// Int converts an integer reply.
func Int(v resp.Value, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	switch v.Kind {
	case resp.Integer:
		return v.Int, nil
	default:
		return 0, fmt.Errorf("client: expected integer reply, got %v", v.Kind)
	}
}

// Ints converts an array-of-integers reply (CORE.MGET, CORE.HIST).
func Ints(v resp.Value, err error) ([]int64, error) {
	if err != nil {
		return nil, err
	}
	if v.Kind != resp.Array {
		return nil, fmt.Errorf("client: expected array reply, got %v", v.Kind)
	}
	out := make([]int64, len(v.Array))
	for i, e := range v.Array {
		if e.Kind != resp.Integer {
			return nil, fmt.Errorf("client: array element %d: expected integer, got %v", i, e.Kind)
		}
		out[i] = e.Int
	}
	return out, nil
}

// String converts a simple-string or bulk reply.
func String(v resp.Value, err error) (string, error) {
	if err != nil {
		return "", err
	}
	switch v.Kind {
	case resp.SimpleString, resp.Bulk:
		return string(v.Str), nil
	default:
		return "", fmt.Errorf("client: expected string reply, got %v", v.Kind)
	}
}
