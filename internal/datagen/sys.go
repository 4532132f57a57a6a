package datagen

import (
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// SYS generates the server-process dataset (§6.1): a single wide
// relation of file-access events, provided in the paper by a private
// software company. The target malicious(proc) captures the paper's
// "patterns of file accesses by malicious processes": a process that
// reads the credential store and also writes to the network spool — a
// self-join on the one relation with two file constants and an operation
// constant each. As in the paper, negatives far outnumber positives
// (malicious activity is rare).
func SYS(cfg Config) *Dataset { return mustGenerate("sys", cfg) }

func generateSYS(cfg Config, mk SinkFactory) (*Dataset, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed + 5))

	nProc := cfg.scaled(1600, 300)
	nPos := cfg.scaled(80, 30)
	nNeg := cfg.scaled(400, 150) // ~1:5, echoing the paper's 150:2000 skew

	s := db.NewSchema()
	s.MustAdd("event", "proc", "image", "file", "op", "outcome")
	sink, err := mk(s)
	if err != nil {
		return nil, err
	}
	d := newDedupSink(sink)

	images := []string{"img_httpd", "img_sshd", "img_cron", "img_backup", "img_update", "img_shell"}
	files := []string{
		"f_tmp_cache", "f_var_log", "f_home_doc", "f_etc_conf",
		"f_usr_lib", "f_data_db", "f_cred_store", "f_net_spool",
	}
	ops := []string{"read", "write", "stat", "exec"}
	outcomes := []string{"ok", "ok", "ok", "denied"}

	isPositive := make([]bool, nProc)
	perm := rng.Perm(nProc)
	for i := 0; i < nPos && i < nProc; i++ {
		isPositive[perm[i]] = true
	}

	addEvent := func(proc, image, file, op string) {
		d.MustInsert("event", proc, image, file, op, pick(rng, outcomes))
	}

	var pos, neg []logic.Literal
	for pi := 0; pi < nProc; pi++ {
		proc := id("proc", pi)
		image := pick(rng, images)
		// Background events.
		for k, n := 0, 6+rng.Intn(8); k < n; k++ {
			file := pick(rng, files)
			op := pick(rng, ops)
			if !isPositive[pi] {
				// A negative may touch the credential store or the net
				// spool, but never holds BOTH halves of the malicious
				// pattern: suppress one side per process.
				if pi%2 == 0 && file == "f_cred_store" && op == "read" {
					op = "stat"
				}
				if pi%2 == 1 && file == "f_net_spool" && op == "write" {
					op = "read"
				}
			}
			addEvent(proc, image, file, op)
		}
		if isPositive[pi] {
			addEvent(proc, image, "f_cred_store", "read")
			addEvent(proc, image, "f_net_spool", "write")
		}
	}

	for pi := 0; pi < nProc && (len(pos) < nPos || len(neg) < nNeg); pi++ {
		if isPositive[pi] && len(pos) < nPos {
			pos = append(pos, example("malicious", id("proc", pi)))
		} else if !isPositive[pi] && len(neg) < nNeg {
			neg = append(neg, example("malicious", id("proc", pi)))
		}
	}

	return &Dataset{
		Name:        "sys",
		Target:      "malicious",
		TargetAttrs: []string{"proc"},
		Pos:         pos,
		Neg:         neg,
		Manual:      sysManualBias(),
		TrueDefinition: "malicious(P) :- event(P,I1,f_cred_store,read,R1), " +
			"event(P,I2,f_net_spool,write,R2).",
	}, nil
}

// sysManualBias is the expert bias for SYS: 9 definitions (§6.1) — small
// because everything lives in one relation, but the paper notes it still
// took long expert sessions with security analysts to find which columns
// should be constants.
func sysManualBias() *bias.Bias {
	return bias.MustParse(`
		% predicate definitions (2)
		malicious(Tp)
		event(Tp,Ti,Tf,To,Tr)
		% mode definitions (7)
		event(+,-,-,-,-)
		event(+,#,-,-,-)
		event(+,-,#,-,-)
		event(+,-,-,#,-)
		event(+,-,#,#,-)
		event(+,-,-,-,#)
		event(+,#,#,#,-)
	`)
}
