// Package procip implements the MultiNoC Processor IP core (§2.4): an
// R8 soft core, its local Memory IP acting as unified cache, and the
// control logic that interfaces both to the Hermes NoC.
//
// The control logic implements the paper's four load-store access
// modes: (i) the local memory; (ii) a remote memory; (iii) I/O devices
// (printf/scanf at 0xFFFF); (iv) other processors, for synchronization
// (wait at 0xFFFE, notify at 0xFFFD). Remote accesses stall the R8 via
// the waitR8 mechanism — here the Bus returning "not ready" — until the
// NoC transaction completes.
package procip

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/r8"
)

// The memory-mapped control addresses of §2.4.
const (
	IOAddr     = 0xFFFF // ST = printf, LD = scanf
	WaitAddr   = 0xFFFE // ST n = block until notified by processor n
	NotifyAddr = 0xFFFD // ST n = wake processor n
)

// Window maps a local address range onto another IP's memory (Figure
// 6). Addresses in [Lo, Hi) are sent to Target with offset addr-Lo.
type Window struct {
	Lo, Hi uint16
	Target noc.Addr
}

// Config assembles one Processor IP.
type Config struct {
	// Addr is the mesh address of the router this IP sits on.
	Addr noc.Addr
	// ID is the processor number used by wait/notify (1-based in the
	// paper's example).
	ID uint16
	// Host is the Serial IP's address, the destination of printf/scanf.
	Host noc.Addr
	// Windows are the remote address ranges; MultiNoC's are
	// [1024,2048) -> other processor and [2048,3072) -> remote memory.
	Windows []Window
	// ProcByID routes notify/wait packets to other processors.
	ProcByID map[uint16]noc.Addr
	// LocalWords is the local memory capacity (1024 in MultiNoC).
	LocalWords int
}

// remote transaction states.
const (
	rIdle = iota
	rWaitRead
	rReadDone
	rWaitScanf
	rScanfDone
)

// Stats counts the control logic's observable events.
type Stats struct {
	RemoteReads   uint64
	RemoteWrites  uint64
	Printfs       uint64
	Scanfs        uint64
	Waits         uint64
	WaitsBlocked  uint64
	Notifies      uint64
	NotifiesRecv  uint64
	WaitRegsRecv  uint64
	UnmappedReads uint64
	PacketErrors  uint64
	Activations   uint64
}

// IP is the Processor IP component.
type IP struct {
	cfg   Config
	cpu   *r8.CPU
	banks *mem.Banks
	eng   *mem.Engine
	ep    *noc.Endpoint

	active bool

	// remote/IO transaction state (the waitR8 stall).
	rstate  int
	rData   uint16
	sentReg bool

	waiting         bool
	waitFor         uint16
	pendingNotifies map[uint16]int

	// per-cycle bank arbitration flag (processor priority, §2.3).
	banksUsed bool

	stats Stats
}

// New creates the Processor IP on the network and registers it with the
// network's clock. The processor stays inactive until an "activate
// processor" packet arrives.
func New(net *noc.Network, cfg Config) (*IP, error) {
	if cfg.LocalWords <= 0 {
		cfg.LocalWords = 1024
	}
	ep, err := net.NewEndpointFor(net.Clock(), cfg.Addr)
	if err != nil {
		return nil, err
	}
	banks := mem.NewBanks(cfg.LocalWords)
	ip := &IP{
		cfg:             cfg,
		cpu:             r8.New(),
		banks:           banks,
		ep:              ep,
		pendingNotifies: make(map[uint16]int),
	}
	ip.eng = mem.NewEngine(banks, func(dst noc.Addr, m *noc.Message) error {
		_, err := ep.SendMessage(dst, m)
		return err
	})
	ep.SetOwner(ip)
	net.Clock().Register(ip)
	return ip, nil
}

// CPU exposes the core for inspection.
func (ip *IP) CPU() *r8.CPU { return ip.cpu }

// Banks exposes the local memory.
func (ip *IP) Banks() *mem.Banks { return ip.banks }

// Stats returns a snapshot of the control-logic counters.
func (ip *IP) Stats() Stats { return ip.stats }

// Active reports whether the processor has been activated.
func (ip *IP) Active() bool { return ip.active }

// Halted reports whether the core has executed HALT.
func (ip *IP) Halted() bool { return ip.cpu.Halted() }

// Waiting reports whether the core is blocked in a wait command.
func (ip *IP) Waiting() bool { return ip.waiting }

// Addr returns the IP's mesh address.
func (ip *IP) Addr() noc.Addr { return ip.cfg.Addr }

// ID returns the processor number.
func (ip *IP) ID() uint16 { return ip.cfg.ID }

// Name implements sim.Component.
func (ip *IP) Name() string { return fmt.Sprintf("procip%s", ip.cfg.Addr) }

// Eval implements sim.Component: dispatch incoming packets, give the
// R8 its cycle, then let the memory engine use whatever the processor
// left free.
func (ip *IP) Eval() {
	ip.dispatch()
	ip.banksUsed = false
	if ip.active && !ip.cpu.Halted() {
		ip.cpu.Step(ip)
	}
	ip.eng.Tick(!ip.banksUsed, ip.rstate == rIdle)
}

// Commit implements sim.Component.
func (ip *IP) Commit() {}

// Idle implements sim.Idler: a Processor IP sleeps while not yet
// activated or after HALT, provided its memory engine is drained and no
// packet awaits dispatch. The endpoint wakes it (via SetOwner) when a
// packet — activate, read, write, notify — arrives. A *running* core is
// never idle, even when stalled on a remote access or a wait command:
// the R8 gets its cycle every cycle, keeping CPI accounting and the
// waitR8 retry timing identical to the dense kernel.
func (ip *IP) Idle() bool {
	return (!ip.active || ip.cpu.Halted()) && !ip.eng.Busy() && ip.ep.Pending() == 0
}

func (ip *IP) dispatch() {
	for {
		m, ok, err := ip.ep.RecvMessage()
		if !ok {
			return
		}
		if err != nil {
			ip.stats.PacketErrors++
			continue
		}
		switch m.Svc {
		case noc.SvcReadMem, noc.SvcWriteMem:
			ip.eng.Deliver(m)
		case noc.SvcActivate:
			ip.stats.Activations++
			if !ip.active || ip.cpu.Halted() {
				ip.cpu.Reset()
				ip.active = true
			}
		case noc.SvcReadReturn:
			if ip.rstate == rWaitRead && len(m.Words) > 0 {
				ip.rData = m.Words[0]
				ip.rstate = rReadDone
			} else {
				ip.stats.PacketErrors++
			}
		case noc.SvcScanfReturn:
			if ip.rstate == rWaitScanf && len(m.Words) == 1 {
				ip.rData = m.Words[0]
				ip.rstate = rScanfDone
			} else {
				ip.stats.PacketErrors++
			}
		case noc.SvcNotify:
			ip.stats.NotifiesRecv++
			ip.pendingNotifies[m.Proc]++
		case noc.SvcWait:
			// Registration of a waiter (the wait service, §2.1);
			// wake-up correctness rides on notify, so this is
			// bookkeeping.
			ip.stats.WaitRegsRecv++
		default:
			ip.stats.PacketErrors++
		}
	}
}

// window finds the remote window containing addr.
func (ip *IP) window(addr uint16) *Window {
	for i := range ip.cfg.Windows {
		w := &ip.cfg.Windows[i]
		if addr >= w.Lo && addr < w.Hi {
			return w
		}
	}
	return nil
}

// Read implements r8.Bus.
func (ip *IP) Read(addr uint16) (uint16, bool) {
	switch {
	case int(addr) < ip.cfg.LocalWords:
		ip.banksUsed = true
		return ip.banks.Read(addr), true
	case addr == IOAddr:
		return ip.scanf()
	case addr == WaitAddr || addr == NotifyAddr:
		// Loads from the synchronization registers are meaningless;
		// define them as reading zero.
		return 0, true
	}
	if w := ip.window(addr); w != nil {
		return ip.remoteRead(w, addr)
	}
	ip.stats.UnmappedReads++
	return 0, true
}

// Write implements r8.Bus.
func (ip *IP) Write(addr, v uint16) bool {
	switch {
	case int(addr) < ip.cfg.LocalWords:
		ip.banksUsed = true
		ip.banks.Write(addr, v)
		return true
	case addr == IOAddr:
		return ip.printf(v)
	case addr == WaitAddr:
		return ip.wait(v)
	case addr == NotifyAddr:
		return ip.notify(v)
	}
	if w := ip.window(addr); w != nil {
		return ip.remoteWrite(w, addr, v)
	}
	ip.stats.UnmappedReads++
	return true
}

func (ip *IP) remoteRead(w *Window, addr uint16) (uint16, bool) {
	switch ip.rstate {
	case rIdle:
		m := &noc.Message{Svc: noc.SvcReadMem, Addr: addr - w.Lo, Count: 1}
		if _, err := ip.ep.SendMessage(w.Target, m); err != nil {
			ip.stats.PacketErrors++
			return 0, true
		}
		ip.stats.RemoteReads++
		ip.rstate = rWaitRead
		return 0, false
	case rReadDone:
		ip.rstate = rIdle
		return ip.rData, true
	default:
		return 0, false // transaction in flight: keep stalling
	}
}

func (ip *IP) remoteWrite(w *Window, addr, v uint16) bool {
	// Posted write: ordering to the same target is preserved by the
	// endpoint queue and deterministic routing.
	m := &noc.Message{Svc: noc.SvcWriteMem, Addr: addr - w.Lo, Words: []uint16{v}}
	if _, err := ip.ep.SendMessage(w.Target, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.RemoteWrites++
	return true
}

// printf sends the word's low byte to the host monitor (a UART-style
// putchar; programs format larger values in software).
func (ip *IP) printf(v uint16) bool {
	m := &noc.Message{Svc: noc.SvcPrintf, Bytes: []byte{byte(v)}}
	if _, err := ip.ep.SendMessage(ip.cfg.Host, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.Printfs++
	return true
}

func (ip *IP) scanf() (uint16, bool) {
	switch ip.rstate {
	case rIdle:
		if _, err := ip.ep.SendMessage(ip.cfg.Host, &noc.Message{Svc: noc.SvcScanf}); err != nil {
			ip.stats.PacketErrors++
			return 0, true
		}
		ip.stats.Scanfs++
		ip.rstate = rWaitScanf
		return 0, false
	case rScanfDone:
		ip.rstate = rIdle
		return ip.rData, true
	default:
		return 0, false
	}
}

// wait blocks the ST instruction until a notify from processor n has
// been received. A notify that raced ahead of the wait is consumed
// immediately.
func (ip *IP) wait(n uint16) bool {
	if ip.pendingNotifies[n] > 0 {
		ip.pendingNotifies[n]--
		if ip.waiting {
			ip.waiting = false
		}
		ip.sentReg = false
		ip.stats.Waits++
		return true
	}
	if !ip.waiting {
		ip.waiting = true
		ip.waitFor = n
		ip.stats.WaitsBlocked++
	}
	if !ip.sentReg {
		// Register the wait with the expected notifier (packet format
		// 9 of §2.1). Unknown IDs still block — a programming error
		// surfaces as a watchdog timeout rather than silence.
		if tgt, ok := ip.cfg.ProcByID[n]; ok {
			m := &noc.Message{Svc: noc.SvcWait, Proc: ip.cfg.ID}
			if _, err := ip.ep.SendMessage(tgt, m); err != nil {
				ip.stats.PacketErrors++
			}
		}
		ip.sentReg = true
	}
	return false
}

// notify wakes processor n (carrying our ID so the waiter can match
// the paper's "notify command from the IP with address 2" semantics).
func (ip *IP) notify(n uint16) bool {
	tgt, ok := ip.cfg.ProcByID[n]
	if !ok {
		ip.stats.PacketErrors++
		return true
	}
	m := &noc.Message{Svc: noc.SvcNotify, Proc: ip.cfg.ID}
	if _, err := ip.ep.SendMessage(tgt, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.Notifies++
	return true
}
