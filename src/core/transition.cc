#include "core/transition.h"

#include <cmath>

#include "common/logging.h"
#include "linalg/nullspace.h"

namespace rasengan::core {

TransitionHamiltonian::TransitionHamiltonian(linalg::IntVec u)
    : u_(std::move(u))
{
    fatal_if(u_.empty(), "transition over zero variables");
    fatal_if(static_cast<int>(u_.size()) > kMaxBits,
             "transition over {} variables exceeds {}", u_.size(), kMaxBits);
    fatal_if(!linalg::isSigned01(u_),
             "transition vector has entries outside {{-1,0,1}}");
    for (size_t i = 0; i < u_.size(); ++i) {
        if (u_[i] == 0)
            continue;
        int q = static_cast<int>(i);
        mask_.set(q);
        supportQubits_.push_back(q);
        if (u_[i] == -1)
            patternPlus_.set(q);
        ++supportSize_;
    }
    fatal_if(supportSize_ == 0, "transition vector is zero");
}

void
TransitionHamiltonian::applyTo(qsim::SparseState &state, double t,
                               double prune_threshold) const
{
    panic_if(state.numQubits() < numVars(),
             "state has {} qubits, transition needs {}", state.numQubits(),
             numVars());
    state.applyPairRotation(mask_, patternPlus_, t, prune_threshold);
}

void
TransitionHamiltonian::appendToCircuit(circuit::Circuit &circ,
                                       double t) const
{
    circ.ensureQubits(numVars());
    const int q0 = supportQubits_.front();

    if (supportSize_ == 1) {
        // H^tau = sigma+ + sigma- = X on the single support qubit, so
        // tau(u, t) = e^{-i t X} = RX(2t).
        circ.rx(q0, 2.0 * t);
        return;
    }

    std::vector<int> rest(supportQubits_.begin() + 1, supportQubits_.end());

    // Conjugation: X on lowering entries maps the raising pattern to
    // all-zeros on the support; the CX fan-out from q0 maps the two
    // patterns to (q0 = 0/1, rest = 0); X on the rest turns the required
    // zero-controls into one-controls.
    auto conjugate = [&]() {
        for (int q : supportQubits_)
            if (u_[q] == -1)
                circ.x(q);
        for (int r : rest)
            circ.cx(q0, r);
        for (int r : rest)
            circ.x(r);
    };
    auto unconjugate = [&]() {
        for (auto it = rest.rbegin(); it != rest.rend(); ++it)
            circ.x(*it);
        for (auto it = rest.rbegin(); it != rest.rend(); ++it)
            circ.cx(q0, *it);
        for (auto it = supportQubits_.rbegin(); it != supportQubits_.rend();
             ++it) {
            if (u_[*it] == -1)
                circ.x(*it);
        }
    };

    conjugate();

    // Controlled RX(2t) on q0 (controls = rest) = H . C-RZ(2t) . H, and
    // C^c RZ(2t) is the symmetric pair of multi-controlled phases:
    // MCP(rest -> q0, 2t) plus an MCP(-t) across the controls.
    circ.h(q0);
    circ.mcp(rest, q0, 2.0 * t);
    if (rest.size() == 1) {
        circ.p(rest[0], -t);
    } else {
        std::vector<int> sub(rest.begin(), rest.end() - 1);
        circ.mcp(sub, rest.back(), -t);
    }
    circ.h(q0);

    unconjugate();
}

circuit::Circuit
TransitionHamiltonian::toCircuit(int num_qubits, double t) const
{
    fatal_if(num_qubits < numVars(),
             "{} qubits cannot hold a transition over {}", num_qubits,
             numVars());
    circuit::Circuit circ(num_qubits);
    appendToCircuit(circ, t);
    return circ;
}

std::vector<std::pair<double, qsim::PauliString>>
TransitionHamiltonian::pauliDecomposition() const
{
    const int k = supportSize_;
    fatal_if(k > 20, "Pauli expansion of a {}-qubit transition is 2^{} "
             "terms; refusing",
             k, k - 1);
    std::vector<std::pair<double, qsim::PauliString>> terms;
    const double scale = std::ldexp(1.0, -(k - 1)); // 1 / 2^{k-1}

    // Enumerate Y-subsets of the support with even cardinality.
    for (uint32_t mask = 0; mask < (1u << k); ++mask) {
        int y_count = __builtin_popcount(mask);
        if (y_count % 2 != 0)
            continue;
        qsim::PauliString p(numVars());
        double coeff = scale * ((y_count / 2) % 2 == 0 ? 1.0 : -1.0);
        for (int i = 0; i < k; ++i) {
            int q = supportQubits_[i];
            if (mask & (1u << i)) {
                p.setOp(q, qsim::PauliOp::Y);
                if (u_[q] < 0)
                    coeff = -coeff; // sign(u_i) factor for Y positions
            } else {
                p.setOp(q, qsim::PauliOp::X);
            }
        }
        terms.emplace_back(coeff, std::move(p));
    }
    return terms;
}

std::vector<TransitionHamiltonian>
makeTransitions(const std::vector<linalg::IntVec> &basis)
{
    std::vector<TransitionHamiltonian> out;
    out.reserve(basis.size());
    for (const auto &u : basis)
        out.emplace_back(u);
    return out;
}

} // namespace rasengan::core
