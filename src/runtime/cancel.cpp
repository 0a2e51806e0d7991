#include "runtime/cancel.hpp"

namespace ffsva::runtime {

namespace {

thread_local const CancelToken* t_current_token = nullptr;

}  // namespace

const CancelToken* current_cancel_token() { return t_current_token; }

void check_cancel() {
  const CancelToken* t = t_current_token;
  if (t != nullptr && t->cancelled()) throw CancelledError();
}

ScopedCancelToken::ScopedCancelToken(const CancelToken& token)
    : prev_(t_current_token) {
  t_current_token = &token;
}

ScopedCancelToken::~ScopedCancelToken() { t_current_token = prev_; }

}  // namespace ffsva::runtime
