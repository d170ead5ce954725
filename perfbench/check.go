package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// digest is the SHA-256 of one trial's canonical JSON, or of a workload's
// per-trial digests in job order.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:]) }

// digester hashes trials through one reused buffer, so checking a pass
// allocates little beyond what encoding/json itself does.
type digester struct {
	buf bytes.Buffer
}

// sum digests a trial's full simulated result: the ScenarioResult for a
// scenario job, the Result otherwise.
func (d *digester) sum(t trial) (digest, error) {
	d.buf.Reset()
	var v any = t.res
	if t.scen != nil {
		v = t.scen
	}
	if err := json.NewEncoder(&d.buf).Encode(v); err != nil {
		return digest{}, fmt.Errorf("encoding a trial result: %w", err)
	}
	return sha256.Sum256(d.buf.Bytes()), nil
}

// workloadDigest folds per-job digests, in job order, into one.
func workloadDigest(per []digest) digest {
	h := sha256.New()
	for _, d := range per {
		h.Write(d[:])
	}
	var out digest
	h.Sum(out[:0])
	return out
}

// checker verifies every trial of every pass against a per-job reference:
// set-up's simulated results on the store workloads, the first pass's
// results on the others. A trial that errored or differs from its reference
// counts as failed.
type checker struct {
	refs []digest
	enc  digester
}

// check verifies one pass and returns how many of its trials failed.
func (c *checker) check(p *passResult) (int, error) {
	first := c.refs == nil
	if first {
		c.refs = make([]digest, len(p.trials))
	}
	failed := 0
	for i, t := range p.trials {
		if p.errs[i] != nil {
			failed++
			continue
		}
		d, err := c.enc.sum(t)
		if err != nil {
			return 0, err
		}
		if first {
			c.refs[i] = d
		} else if d != c.refs[i] {
			failed++
		}
	}
	return failed, nil
}

// pins holds the workload digests of the default seed, as
// {"<workload>": "<hex digest>"}.
//
//go:embed pins.json
var pinsJSON []byte

// pinnedDigest returns the pinned digest of workload name at seed, if any.
func pinnedDigest(name string, seed uint64) (string, bool, error) {
	if seed != defaultSeed {
		return "", false, nil
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", false, fmt.Errorf("reading pins.json: %w", err)
	}
	d, ok := pins[name]
	return d, ok, nil
}
