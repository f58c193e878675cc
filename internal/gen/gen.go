// Package gen synthesizes system monitoring datasets: deterministic
// enterprise background activity plus the injected attack behaviours the
// paper's evaluation queries investigate (the APT case study c1–c5, the
// second APT a1–a5, dependency-tracking chains d1–d3, real-world malware
// v1–v5, and abnormal system behaviours s1–s6).
//
// The generator replaces the paper's 150-host auditd/ETW deployment. Every
// evaluation query targets a concrete behavioural signature; the injectors
// plant exactly those signatures inside seeded random background noise so
// that each published query returns non-trivial results with realistic
// selectivity.
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Day0 is the first day of every generated dataset (UTC).
var Day0 = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

// DayStart returns the unix-millisecond timestamp of the start of dataset
// day i.
func DayStart(i int) int64 { return Day0.AddDate(0, 0, i).UnixMilli() }

// DateStr renders dataset day i in the US format AIQL queries use.
func DateStr(i int) string { return Day0.AddDate(0, 0, i).Format("01/02/2006") }

// Config controls dataset scale. The zero value is unusable; fill every
// field or start from SmallConfig.
type Config struct {
	// Hosts is the number of agents (hosts), numbered 1..Hosts.
	Hosts int
	// Days is the number of simulated days starting at Day0.
	Days int
	// BackgroundPerHostDay is the number of background events generated
	// per host per day.
	BackgroundPerHostDay int
	// Seed makes generation deterministic.
	Seed int64
}

// SmallConfig is used by unit and integration tests.
func SmallConfig() Config {
	return Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 1500, Seed: 1}
}

// Well-known agent roles in every generated enterprise. Hosts beyond these
// are employee workstations.
const (
	AgentWinClient = 1 // Windows client (APT victim)
	AgentDBServer  = 2 // SQL database server
	AgentWebServer = 3 // Linux web server (apache)
	AgentDevBox    = 4 // Linux developer box
	AgentMailSrv   = 5 // mail server
)

// Network endpoints used by the injected attacks (TEST-NET addresses).
const (
	AttackerIP  = "203.0.113.129" // the paper's obfuscated "XXX.129"
	AttackerIP2 = "203.0.113.77"  // second APT's C2 endpoint
	UpdateCDNIP = "198.51.100.10" // software update CDN
)

// Builder accumulates entities and events with deterministic IDs and
// per-agent sequence numbers.
type Builder struct {
	rng        *rand.Rand
	entities   []types.Entity
	events     []types.Event
	nextEntity types.EntityID
	nextEvent  types.EventID
	seq        map[int]uint64
	cache      map[string]types.EntityID
}

// NewBuilder creates an empty builder with the given deterministic seed.
func NewBuilder(seed int64) *Builder {
	return &Builder{
		rng:   rand.New(rand.NewSource(seed)),
		seq:   make(map[int]uint64),
		cache: make(map[string]types.EntityID),
	}
}

// Dataset finalizes the builder into an immutable dataset.
func (b *Builder) Dataset() *types.Dataset {
	return types.NewDataset(b.entities, b.events)
}

// Rand exposes the builder's deterministic random source to injectors.
func (b *Builder) Rand() *rand.Rand { return b.rng }

func (b *Builder) newEntity(t types.EntityType, agent int, attrs map[string]string) types.EntityID {
	b.nextEntity++
	b.entities = append(b.entities, types.Entity{
		ID:      b.nextEntity,
		Type:    t,
		AgentID: agent,
		Attrs:   attrs,
	})
	return b.nextEntity
}

// Proc returns the process entity for (agent, exe), creating it on first
// use. Processes are keyed by executable path; distinct instances of the
// same program (e.g. per attack stage) can be forced with ProcInstance.
func (b *Builder) Proc(agent int, exe string) types.EntityID {
	key := fmt.Sprintf("p|%d|%s", agent, exe)
	if id, ok := b.cache[key]; ok {
		return id
	}
	id := b.newEntity(types.EntityProcess, agent, map[string]string{
		types.AttrExeName:   exe,
		types.AttrPID:       fmt.Sprint(1000 + b.rng.Intn(60000)),
		types.AttrUser:      pickUser(b.rng, agent),
		types.AttrCmd:       exe,
		types.AttrSignature: signatureFor(exe),
	})
	b.cache[key] = id
	return id
}

// ProcInstance creates a fresh process entity for exe regardless of cache
// state (a new PID), used when an attack needs a distinguishable instance.
func (b *Builder) ProcInstance(agent int, exe string) types.EntityID {
	return b.newEntity(types.EntityProcess, agent, map[string]string{
		types.AttrExeName:   exe,
		types.AttrPID:       fmt.Sprint(1000 + b.rng.Intn(60000)),
		types.AttrUser:      pickUser(b.rng, agent),
		types.AttrCmd:       exe,
		types.AttrSignature: signatureFor(exe),
	})
}

// File returns the file entity for (agent, path), creating it on first use.
func (b *Builder) File(agent int, path string) types.EntityID {
	key := fmt.Sprintf("f|%d|%s", agent, path)
	if id, ok := b.cache[key]; ok {
		return id
	}
	id := b.newEntity(types.EntityFile, agent, map[string]string{
		types.AttrName:   path,
		types.AttrOwner:  pickUser(b.rng, agent),
		types.AttrVolID:  "vol0",
		types.AttrDataID: fmt.Sprintf("d%08d", b.nextEntity),
	})
	b.cache[key] = id
	return id
}

// Conn returns the network-connection entity for (agent, dstIP, dstPort).
func (b *Builder) Conn(agent int, dstIP string, dstPort int) types.EntityID {
	key := fmt.Sprintf("n|%d|%s|%d", agent, dstIP, dstPort)
	if id, ok := b.cache[key]; ok {
		return id
	}
	id := b.newEntity(types.EntityNetwork, agent, map[string]string{
		types.AttrSrcIP:    fmt.Sprintf("10.10.0.%d", agent),
		types.AttrDstIP:    dstIP,
		types.AttrSrcPort:  fmt.Sprint(20000 + b.rng.Intn(40000)),
		types.AttrDstPort:  fmt.Sprint(dstPort),
		types.AttrProtocol: "tcp",
	})
	b.cache[key] = id
	return id
}

// Emit appends one event. t is unix milliseconds; amount is the transfer
// size for read/write/send/recv events (0 where meaningless).
func (b *Builder) Emit(agent int, subj, obj types.EntityID, op types.Op, t int64, amount int64) types.EventID {
	b.nextEvent++
	b.seq[agent]++
	b.events = append(b.events, types.Event{
		ID:      b.nextEvent,
		AgentID: agent,
		Subject: subj,
		Object:  obj,
		Op:      op,
		Start:   t,
		End:     t + int64(b.rng.Intn(40)),
		Seq:     b.seq[agent],
		Amount:  amount,
	})
	return b.nextEvent
}

// Background generates cfg.BackgroundPerHostDay noise events per host per
// day: process starts, file reads/writes, and network traffic drawn from
// per-role name pools.
func (b *Builder) Background(cfg Config) {
	for day := 0; day < cfg.Days; day++ {
		dayStart := DayStart(day)
		for agent := 1; agent <= cfg.Hosts; agent++ {
			procs := procPoolFor(agent)
			files := filePoolFor(agent)
			for i := 0; i < cfg.BackgroundPerHostDay; i++ {
				t := dayStart + b.rng.Int63n(timeutil.DayMillis)
				subj := b.Proc(agent, procs[b.rng.Intn(len(procs))])
				switch r := b.rng.Float64(); {
				case r < 0.40: // file read
					obj := b.File(agent, files[b.rng.Intn(len(files))])
					b.Emit(agent, subj, obj, types.OpRead, t, int64(64+b.rng.Intn(65536)))
				case r < 0.65: // file write
					obj := b.File(agent, files[b.rng.Intn(len(files))])
					b.Emit(agent, subj, obj, types.OpWrite, t, int64(64+b.rng.Intn(65536)))
				case r < 0.75: // process start
					child := b.Proc(agent, procs[b.rng.Intn(len(procs))])
					b.Emit(agent, subj, child, types.OpStart, t, 0)
				case r < 0.87: // network send
					obj := b.Conn(agent, randomInternalIP(b.rng, cfg.Hosts), 443)
					b.Emit(agent, subj, obj, types.OpWrite, t, int64(128+b.rng.Intn(32768)))
				case r < 0.95: // network recv
					obj := b.Conn(agent, randomInternalIP(b.rng, cfg.Hosts), 443)
					b.Emit(agent, subj, obj, types.OpRead, t, int64(128+b.rng.Intn(32768)))
				case r < 0.98: // connect
					obj := b.Conn(agent, randomInternalIP(b.rng, cfg.Hosts), 80+b.rng.Intn(8000))
					b.Emit(agent, subj, obj, types.OpConnect, t, 0)
				default: // execute
					obj := b.File(agent, files[b.rng.Intn(len(files))])
					b.Emit(agent, subj, obj, types.OpExecute, t, 0)
				}
				// Low-rate realistic accesses to shell/editor state files on
				// Linux hosts: only the owning programs touch them, so
				// history-probing queries stay selective, as in real audit
				// data.
				if (agent == AgentWebServer || agent == AgentDevBox) && b.rng.Float64() < 0.002 {
					vim := b.Proc(agent, "/usr/bin/vim")
					vi := b.File(agent, "/home/dev/.viminfo")
					hist := b.File(agent, "/home/dev/.bash_history")
					if b.rng.Float64() < 0.5 {
						b.Emit(agent, vim, vi, types.OpWrite, t+1, 4096)
					} else {
						bash := b.Proc(agent, "/bin/bash")
						b.Emit(agent, bash, hist, types.OpWrite, t+1, 2048)
					}
				}
			}
		}
	}
}

// CrossHostConnect records a cross-host dependency: proc on agentA connects
// to proc on agentB. Besides the two host-local network events, it emits a
// direct proc→proc connect edge, the representation dependency queries use
// to chain constraints across hosts (paper Sec. 4.2, Query 3's
// "->[connect]" step).
func (b *Builder) CrossHostConnect(agentA int, procA types.EntityID, agentB int, procB types.EntityID, port int, t int64) {
	connA := b.Conn(agentA, fmt.Sprintf("10.10.0.%d", agentB), port)
	b.Emit(agentA, procA, connA, types.OpConnect, t, 0)
	connB := b.Conn(agentB, fmt.Sprintf("10.10.0.%d", agentA), port)
	b.Emit(agentB, procB, connB, types.OpAccept, t+5, 0)
	// Direct cross-host edge (attributed to the initiating agent).
	b.Emit(agentA, procA, procB, types.OpConnect, t+1, 0)
}

func randomInternalIP(rng *rand.Rand, hosts int) string {
	return fmt.Sprintf("10.10.0.%d", 1+rng.Intn(hosts))
}

func pickUser(rng *rand.Rand, agent int) string {
	switch agent {
	case AgentDBServer, AgentWebServer, AgentMailSrv:
		return "root"
	default:
		return fmt.Sprintf("user%d", agent)
	}
}

func signatureFor(exe string) string {
	// Signed Microsoft/vendor binaries vs unsigned everything else.
	for _, s := range signedBinaries {
		if s == exe {
			return "verified"
		}
	}
	return "unsigned"
}
