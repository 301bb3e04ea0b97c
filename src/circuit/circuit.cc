#include "circuit/circuit.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace rasengan::circuit {

bool
gateHasParam(GateKind kind)
{
    switch (kind) {
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::CP:
      case GateKind::MCP:
        return true;
      default:
        return false;
    }
}

std::string
gateName(GateKind kind)
{
    switch (kind) {
      case GateKind::X: return "x";
      case GateKind::H: return "h";
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::P: return "p";
      case GateKind::CX: return "cx";
      case GateKind::CP: return "cp";
      case GateKind::Swap: return "swap";
      case GateKind::MCX: return "mcx";
      case GateKind::MCP: return "mcp";
      case GateKind::Barrier: return "barrier";
      case GateKind::Measure: return "measure";
      case GateKind::Reset: return "reset";
    }
    panic("unknown gate kind {}", static_cast<int>(kind));
}

Circuit::Circuit(int num_qubits) : numQubits_(num_qubits)
{
    fatal_if(num_qubits < 0, "negative qubit count {}", num_qubits);
}

void
Circuit::ensureQubits(int n)
{
    numQubits_ = std::max(numQubits_, n);
}

void
Circuit::checkQubit(int q) const
{
    panic_if(q < 0 || q >= numQubits_, "qubit {} out of range [0, {})", q,
             numQubits_);
}

void
Circuit::checkGate(const Gate &g) const
{
    g.forEachQubit([&](int q) {
        checkQubit(q);
        int uses = 0;
        g.forEachQubit([&](int r) { uses += r == q; });
        panic_if(uses > 1, "duplicate qubit {} in {} gate", q,
                 gateName(g.kind));
    });
    switch (g.kind) {
      case GateKind::X:
      case GateKind::H:
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::Measure:
      case GateKind::Reset:
        panic_if(!g.controls.empty() || g.targets.size() != 1,
                 "{} gate must have one target and no controls",
                 gateName(g.kind));
        break;
      case GateKind::CX:
      case GateKind::CP:
        panic_if(g.controls.size() != 1 || g.targets.size() != 1,
                 "{} gate must have one control and one target",
                 gateName(g.kind));
        break;
      case GateKind::Swap:
        panic_if(!g.controls.empty() || g.targets.size() != 2,
                 "swap gate must have two targets");
        break;
      case GateKind::MCX:
      case GateKind::MCP:
        panic_if(g.targets.size() != 1,
                 "{} gate must have one target", gateName(g.kind));
        break;
      case GateKind::Barrier:
        break;
    }
}

void Circuit::x(int q) { append({GateKind::X, {}, {q}, 0.0}); }
void Circuit::h(int q) { append({GateKind::H, {}, {q}, 0.0}); }
void Circuit::rx(int q, double t) { append({GateKind::RX, {}, {q}, t}); }
void Circuit::ry(int q, double t) { append({GateKind::RY, {}, {q}, t}); }
void Circuit::rz(int q, double t) { append({GateKind::RZ, {}, {q}, t}); }
void Circuit::p(int q, double t) { append({GateKind::P, {}, {q}, t}); }

void
Circuit::cx(int control, int target)
{
    append({GateKind::CX, {control}, {target}, 0.0});
}

void
Circuit::cp(int control, int target, double theta)
{
    append({GateKind::CP, {control}, {target}, theta});
}

void
Circuit::swap(int a, int b)
{
    append({GateKind::Swap, {}, {a, b}, 0.0});
}

void
Circuit::mcx(const std::vector<int> &controls, int target)
{
    if (controls.empty())
        x(target);
    else if (controls.size() == 1)
        cx(controls[0], target);
    else
        append({GateKind::MCX, controls, {target}, 0.0});
}

void
Circuit::mcp(const std::vector<int> &controls, int target, double theta)
{
    if (controls.empty())
        p(target, theta);
    else if (controls.size() == 1)
        cp(controls[0], target, theta);
    else
        append({GateKind::MCP, controls, {target}, theta});
}

void
Circuit::barrier()
{
    append({GateKind::Barrier, {}, {}, 0.0});
}

void
Circuit::measure(int q)
{
    append({GateKind::Measure, {}, {q}, 0.0});
}

void
Circuit::reset(int q)
{
    append({GateKind::Reset, {}, {q}, 0.0});
}

void
Circuit::append(Gate g)
{
    checkGate(g);
    gates_.push_back(std::move(g));
}

void
Circuit::append(const Circuit &other)
{
    ensureQubits(other.numQubits());
    for (const Gate &g : other.gates())
        append(g);
}

namespace {

/** Generic level-scheduling depth: predicate selects counted gates. */
template <typename Pred>
int
scheduledDepth(const Circuit &c, Pred counts)
{
    std::vector<int> level(c.numQubits(), 0);
    int depth = 0;
    for (const Gate &g : c.gates()) {
        if (g.kind == GateKind::Barrier) {
            // A barrier aligns every wire to the current frontier.
            int frontier = 0;
            for (int l : level)
                frontier = std::max(frontier, l);
            std::fill(level.begin(), level.end(), frontier);
            continue;
        }
        int start = 0;
        g.forEachQubit([&](int q) { start = std::max(start, level[q]); });
        const int next = start + (counts(g) ? 1 : 0);
        g.forEachQubit([&](int q) { level[q] = next; });
        depth = std::max(depth, next);
    }
    return depth;
}

} // namespace

int
Circuit::depth() const
{
    return scheduledDepth(*this, [](const Gate &) { return true; });
}

int
Circuit::twoQubitDepth() const
{
    return scheduledDepth(*this,
                          [](const Gate &g) { return g.isMultiQubit(); });
}

int
Circuit::countCx() const
{
    return countKind(GateKind::CX);
}

int
Circuit::countKind(GateKind kind) const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.kind == kind)
            ++n;
    return n;
}

int
Circuit::countOps() const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.kind != GateKind::Barrier)
            ++n;
    return n;
}

std::string
Circuit::toQasm() const
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\n" << "include \"qelib1.inc\";\n";
    os << "qreg q[" << numQubits_ << "];\n";
    if (countKind(GateKind::Measure) > 0)
        os << "creg c[" << numQubits_ << "];\n";
    for (const Gate &g : gates_) {
        if (g.kind == GateKind::Barrier) {
            os << "barrier q;\n";
            continue;
        }
        if (g.kind == GateKind::Measure) {
            os << "measure q[" << g.targets[0] << "] -> c["
               << g.targets[0] << "];\n";
            continue;
        }
        if (g.kind == GateKind::MCX || g.kind == GateKind::MCP) {
            // Not part of qelib1; print as annotated pseudo-ops.
            os << "// " << gateName(g.kind) << "(";
            if (gateHasParam(g.kind))
                os << g.param;
            os << ") controls=[";
            for (size_t i = 0; i < g.controls.size(); ++i)
                os << (i ? "," : "") << g.controls[i];
            os << "] target=" << g.targets[0] << "\n";
            continue;
        }
        os << gateName(g.kind);
        if (gateHasParam(g.kind))
            os << "(" << g.param << ")";
        os << " ";
        bool first = true;
        for (int q : g.qubits()) {
            os << (first ? "" : ", ") << "q[" << q << "]";
            first = false;
        }
        os << ";\n";
    }
    return os.str();
}

uint64_t
Circuit::fingerprint() const
{
    // FNV-1a 64-bit over a canonical byte stream of the circuit.
    constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = kOffset;
    auto mix64 = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= kPrime;
        }
    };
    mix64(static_cast<uint64_t>(numQubits_));
    mix64(gates_.size());
    for (const Gate &g : gates_) {
        mix64(static_cast<uint64_t>(g.kind));
        mix64(g.controls.size());
        for (int q : g.controls)
            mix64(static_cast<uint64_t>(q));
        mix64(g.targets.size());
        for (int q : g.targets)
            mix64(static_cast<uint64_t>(q));
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(g.param));
        std::memcpy(&bits, &g.param, sizeof(bits));
        mix64(bits);
    }
    return h;
}

} // namespace rasengan::circuit
