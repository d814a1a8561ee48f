#include "src/dist/failure_domain.h"

namespace udc {

std::string_view FailureHandlingName(FailureHandling handling) {
  switch (handling) {
    case FailureHandling::kReexecute:
      return "reexecute";
    case FailureHandling::kCheckpointRestore:
      return "checkpoint";
    case FailureHandling::kFailover:
      return "failover";
  }
  return "unknown";
}

bool ParseFailureHandling(std::string_view name, FailureHandling* out) {
  if (name == "reexecute") {
    *out = FailureHandling::kReexecute;
    return true;
  }
  if (name == "checkpoint") {
    *out = FailureHandling::kCheckpointRestore;
    return true;
  }
  if (name == "failover") {
    *out = FailureHandling::kFailover;
    return true;
  }
  return false;
}

}  // namespace udc
