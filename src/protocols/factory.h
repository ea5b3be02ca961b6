#ifndef PCPDA_PROTOCOLS_FACTORY_H_
#define PCPDA_PROTOCOLS_FACTORY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "protocols/protocol.h"

namespace pcpda {

const char* ToString(ProtocolKind kind);

/// Inverse of ToString (exact match, e.g. "PCP-DA", "2PL-HP");
/// nullopt for unknown names.
std::optional<ProtocolKind> ProtocolKindByName(const std::string& name);

/// All protocol kinds, PCP-DA first.
std::vector<ProtocolKind> AllProtocolKinds();

/// The kinds whose ProtocolTraits report a finite worst-case blocking
/// bound (everything but 2PL-PI). Derived from TraitsOf, so lint, the
/// blocking analysis and the fuzzer's soundness oracles agree on
/// analyzability by construction.
std::vector<ProtocolKind> AnalyzableProtocolKinds();

/// Creates a fresh protocol instance.
std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind);

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_FACTORY_H_
