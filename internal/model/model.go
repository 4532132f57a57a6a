// Package model defines the durable artifact a learning run produces and
// a serving process consumes: the learned Horn theory together with
// everything needed to answer coverage queries exactly as the learner
// would — the language bias and the bottom-clause and subsumption
// configuration.
//
// The artifact exists because the system's coverage semantics are
// sampled (§5): "does clause C cover tuple t" is answered against t's
// ground bottom clause, and a ground BC is a sample. Shipping the theory
// alone would let a server agree with the learner only by luck. Every
// ground BC is drawn from an RNG seeded by (seed, example) and nothing
// else (DESIGN.md §19), so the configuration is all a server needs: it
// rebuilds, on demand, byte-identical ground BCs for any example —
// training, held-out or never seen — and its verdicts equal the
// learner's own, bit for bit, whether the artifact was saved before or
// after the learner answered the same query, and whether or not the run
// was cut short.
//
// Artifacts are versioned JSON with a SHA-256 checksum over their
// payload, and carry a fingerprint of the schema they were trained
// against: loading a stale artifact after the data changed shape fails
// loudly instead of silently misclassifying.
package model

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// Version is the artifact format version this package writes. Load
// rejects any other value: the format pins verdict semantics, so a
// silent cross-version read could serve wrong verdicts. A version 1
// theory was learned against ground BCs that depended on build order
// and came with a build log to replay them; this binary builds neither,
// so such a model must be learned again. Version 2 recorded a
// subsumption restart count that was always zero and is no longer read.
// Version 3 carried the training interner's symbol table, which never
// affected a verdict.
const Version = 4

// DataRef names the database a model was trained over, so a serving
// process can rebind it: either a generated benchmark dataset
// (regenerated deterministically from name/scale/seed) or a directory of
// CSV files.
type DataRef struct {
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	CSVDir  string  `json:"csv_dir,omitempty"`
}

// Key returns a stable identity for the reference, used by serving to
// share one database across models trained on the same data.
func (d DataRef) Key() string {
	if d.Dataset != "" {
		return fmt.Sprintf("dataset:%s@%g#%d", d.Dataset, d.Scale, d.Seed)
	}
	return "csv:" + d.CSVDir
}

// IsZero reports whether the reference names no data source.
func (d DataRef) IsZero() bool { return d.Dataset == "" && d.CSVDir == "" }

// BottomConfig is the serialized form of bottom.Options (minus the
// non-serializable metrics hook).
type BottomConfig struct {
	Strategy    string `json:"strategy"`
	Depth       int    `json:"depth"`
	SampleSize  int    `json:"sample_size"`
	MaxLiterals int    `json:"max_literals"`
	Seed        int64  `json:"seed"`
}

// SubsumeConfig is the serialized form of subsume.Options (minus the
// metrics hook). Values are stored as the engine ran with them —
// including zeros that the subsume package defaults at check time — so
// a serving engine normalizes to identical effective values.
type SubsumeConfig struct {
	MaxNodes int   `json:"max_nodes"`
	Seed     int64 `json:"seed"`
}

// Artifact is one learned model, ready to serialize. Fields are exported
// for JSON; construct via the facade's Result.BuildArtifact (or by hand
// in tests) and call Seal before Save.
type Artifact struct {
	// Version is the format version; see the package constant.
	Version int `json:"version"`
	// Target is the learned relation; TargetAttrs its attribute names.
	Target      string   `json:"target"`
	TargetAttrs []string `json:"target_attrs"`
	// Theory is the learned definition, one clause per line in the
	// logic package's Datalog syntax ("" = no definition learned).
	Theory string `json:"theory"`
	// Bias is the language bias in its two-section text form.
	Bias string `json:"bias"`
	// Bottom and Subsume reproduce the training engine's configuration.
	Bottom  BottomConfig  `json:"bottom"`
	Subsume SubsumeConfig `json:"subsume"`
	// SchemaFingerprint hashes the training schema plus target signature;
	// see Fingerprint. Binding against a database with a different
	// fingerprint fails loudly.
	SchemaFingerprint string `json:"schema_fingerprint"`
	// Data names the training database so serving can rebind it.
	Data DataRef `json:"data"`
	// DataVersion is the database's ingest data version (internal/ingest)
	// the theory was learned or repaired against — the snapshot name
	// downstream consumers compare when deciding whether a served model
	// is stale. Zero (omitted) for artifacts from static loads.
	DataVersion uint64 `json:"data_version,omitempty"`
	// Degraded marks an artifact saved from an interrupted or
	// fault-isolated run: the theory is the anytime partial result. It
	// says nothing about verdicts — a served verdict equals the learner's
	// for this theory either way.
	Degraded bool `json:"degraded,omitempty"`
	// Checksum is the SHA-256 (hex) of the artifact's canonical JSON with
	// this field empty; Seal computes it, Load verifies it.
	Checksum string `json:"checksum"`
}

// Definition parses the artifact's theory. An empty theory yields an
// empty definition carrying the target name.
func (a *Artifact) Definition() (*logic.Definition, error) {
	d, err := logic.ParseDefinition(a.Theory)
	if err != nil {
		return nil, fmt.Errorf("model: theory: %w", err)
	}
	if d.Target == "" {
		d.Target = a.Target
	} else if d.Target != a.Target {
		return nil, fmt.Errorf("model: theory head predicate %q does not match target %q", d.Target, a.Target)
	}
	return d, nil
}

// BiasSpec parses the artifact's language bias.
func (a *Artifact) BiasSpec() (*bias.Bias, error) {
	b, err := bias.Parse(a.Bias)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return b, nil
}

// BottomOptions reconstructs the training builder's options.
func (a *Artifact) BottomOptions() (bottom.Options, error) {
	strat, err := bottom.ParseStrategy(a.Bottom.Strategy)
	if err != nil {
		return bottom.Options{}, fmt.Errorf("model: %w", err)
	}
	return bottom.Options{
		Strategy:    strat,
		Depth:       a.Bottom.Depth,
		SampleSize:  a.Bottom.SampleSize,
		MaxLiterals: a.Bottom.MaxLiterals,
		Seed:        a.Bottom.Seed,
	}, nil
}

// SubsumeOptions reconstructs the training engine's subsumption options.
func (a *Artifact) SubsumeOptions() subsume.Options {
	return subsume.Options{
		MaxNodes: a.Subsume.MaxNodes,
		Seed:     a.Subsume.Seed,
	}
}

// checkVersion rejects every format but the current one, telling the
// holder of an older artifact what to do about it.
func (a *Artifact) checkVersion() error {
	if a.Version != Version {
		return fmt.Errorf("artifact version %d, this binary reads %d: re-save the model from its learning run or retrain", a.Version, Version)
	}
	return nil
}

// Validate checks internal consistency: version, target signature, and
// that the embedded theory, bias and strategy parse. It does not verify
// the checksum (Load does) so hand-built artifacts can be validated
// before sealing.
func (a *Artifact) Validate() error {
	if err := a.checkVersion(); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if a.Target == "" || len(a.TargetAttrs) == 0 {
		return fmt.Errorf("model: artifact missing target signature")
	}
	if a.SchemaFingerprint == "" {
		return fmt.Errorf("model: artifact missing schema fingerprint")
	}
	if _, err := a.Definition(); err != nil {
		return err
	}
	if _, err := a.BiasSpec(); err != nil {
		return err
	}
	if _, err := a.BottomOptions(); err != nil {
		return err
	}
	return nil
}

// ParseExample parses a ground target literal from its recorded string
// form (e.g. "advisedBy(juan,sarita)").
func ParseExample(s string) (logic.Literal, error) {
	c, err := logic.ParseClause(s)
	if err != nil {
		return logic.Literal{}, err
	}
	if len(c.Body) != 0 || !c.Head.IsGround() {
		return logic.Literal{}, fmt.Errorf("model: %q is not a ground fact", s)
	}
	return c.Head, nil
}

// payload returns the canonical JSON the checksum covers: the artifact
// with Checksum emptied. encoding/json emits struct fields in declaration
// order, so the bytes are deterministic for a given artifact.
func (a *Artifact) payload() ([]byte, error) {
	cp := *a
	cp.Checksum = ""
	return json.Marshal(&cp)
}

// ComputeChecksum returns the SHA-256 hex of the artifact's payload.
func (a *Artifact) ComputeChecksum() (string, error) {
	data, err := a.payload()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Seal validates the artifact and stamps its checksum.
func (a *Artifact) Seal() error {
	if err := a.Validate(); err != nil {
		return err
	}
	sum, err := a.ComputeChecksum()
	if err != nil {
		return err
	}
	a.Checksum = sum
	return nil
}

// Save seals the artifact (if not already sealed with a current
// checksum) and writes it as indented JSON.
func (a *Artifact) Save(path string) error {
	if err := a.Seal(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads an artifact, verifies its version and checksum, and
// validates its contents. Any mismatch — truncated file, hand-edited
// theory, version skew — is a hard error: a serving process must never
// classify with a model it cannot prove it has read intact.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	if err := a.checkVersion(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	if a.Checksum == "" {
		return nil, fmt.Errorf("model: %s: artifact is unsealed (no checksum)", path)
	}
	want, err := a.ComputeChecksum()
	if err != nil {
		return nil, err
	}
	if a.Checksum != want {
		return nil, fmt.Errorf("model: %s: checksum mismatch (artifact corrupt or hand-edited)", path)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	return a, nil
}

// Fingerprint hashes the shape a model depends on: every relation with
// its attributes in schema order, plus the target relation signature.
// Tuple contents are deliberately excluded — data grows under a stable
// schema without invalidating models — but any rename, reorder, or
// arity change produces a different fingerprint and a loud bind failure.
func Fingerprint(s *db.Schema, target string, targetAttrs []string) string {
	h := sha256.New()
	for _, name := range s.Names() {
		rs := s.Relation(name)
		fmt.Fprintf(h, "rel %s(%s)\n", name, strings.Join(rs.Attributes, ","))
	}
	fmt.Fprintf(h, "target %s(%s)\n", target, strings.Join(targetAttrs, ","))
	return hex.EncodeToString(h.Sum(nil))
}
