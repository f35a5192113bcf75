#include "guests/synth.h"

#include <string_view>
#include <vector>

#include "support/rng.h"
#include "support/strings.h"

namespace r2r::guests::synth {

namespace {

constexpr std::string_view kCharset = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

char draw_char(support::Rng& rng) {
  return kCharset[static_cast<std::size_t>(rng.next_below(kCharset.size()))];
}

std::string draw_token(support::Rng& rng, std::size_t length) {
  std::string token;
  token.reserve(length);
  for (std::size_t i = 0; i < length; ++i) token.push_back(draw_char(rng));
  return token;
}

/// Per-target assembly idioms: register names for the fixed roles the
/// generator uses, the immediate range, and the inc/dec spelling. RV32I has
/// no inc/dec/imul and only simm12 ALU immediates; its digest is a 32-bit
/// x33 shift-add recurrence instead of the 64-bit multiply.
struct Dialect {
  isa::Arch arch;
  bool rv;           ///< register-save RISC target (rv32i)
  const char* acc;   ///< rax / a0 — accumulator, syscall nr + verdict
  const char* cnt;   ///< rcx / a1 — loop counter
  const char* dat;   ///< rdx / a2 — second temp, syscall arg2
  const char* tmp;   ///< rbx / a3 — scratch byte
  const char* ptr;   ///< rsi / a4 — input pointer, syscall arg1
  const char* ptr2;  ///< rdi / a5 — reference pointer, syscall arg0
};

Dialect dialect_for(isa::Arch arch) {
  if (arch == isa::Arch::kRv32i) {
    return {arch, true, "a0", "a1", "a2", "a3", "a4", "a5"};
  }
  return {arch, false, "rax", "rcx", "rdx", "rbx", "rsi", "rdi"};
}

std::string inc_reg(const Dialect& d, const char* reg) {
  return d.rv ? "    add " + std::string(reg) + ", 1\n"
              : "    inc " + std::string(reg) + "\n";
}

std::string dec_reg(const Dialect& d, const char* reg) {
  return d.rv ? "    add " + std::string(reg) + ", -1\n"
              : "    dec " + std::string(reg) + "\n";
}

/// Positive immediate the target's ALU forms accept everywhere the
/// generator uses one (imm32 on x86-64, simm12 on rv32i).
std::uint64_t draw_imm(support::Rng& rng, const Dialect& d) {
  const std::uint64_t mask = d.rv ? 0x7FFULL : 0x7FFFFFFFULL;
  return (rng.next() & mask) | 1;
}

/// The guest-side digest loop mirrored host-side. x86-64: h = (h ^ byte) *
/// prime, 64-bit wrapping (xor+imul). rv32i: h = (h ^ byte) * 33, 32-bit
/// wrapping — the multiply is a shl-5 + add, so no mul instruction needed.
std::uint64_t synth_digest(const Dialect& d, std::string_view data,
                           std::uint64_t basis, std::uint64_t prime) {
  if (d.rv) {
    auto hash = static_cast<std::uint32_t>(basis);
    for (const char c : data) {
      hash = (hash ^ static_cast<std::uint8_t>(c)) * 33u;
    }
    return hash;
  }
  std::uint64_t hash = basis;
  for (const char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= prime;
  }
  return hash;
}

std::string write_msg(const Dialect& d, const std::string& symbol,
                      std::size_t length) {
  return "    mov " + std::string(d.acc) + ", 1\n"
         "    mov " + d.ptr2 + ", 1\n"
         "    mov " + d.ptr + ", offset " + symbol + "\n"
         "    mov " + d.dat + ", " + std::to_string(length) + "\n"
         "    syscall\n";
}

std::string exit_with(const Dialect& d, int code) {
  return "    mov " + std::string(d.acc) + ", 60\n"
         "    mov " + d.ptr2 + ", " + std::to_string(code) + "\n"
         "    syscall\n";
}

DecisionKind pick_decision(support::Rng& rng, const SynthConfig& config) {
  std::vector<DecisionKind> palette;
  if (config.allow_byte_compare) palette.push_back(DecisionKind::kByteCompare);
  if (config.allow_digest) palette.push_back(DecisionKind::kDigestCompare);
  if (config.allow_multistage) palette.push_back(DecisionKind::kMultiStageGuard);
  if (palette.empty()) palette.push_back(DecisionKind::kByteCompare);
  return palette[static_cast<std::size_t>(rng.next_below(palette.size()))];
}

bool chance(support::Rng& rng, unsigned percent) {
  return rng.next_below(100) < percent;
}

/// Flag-neutral filler instructions (mov/movzx only) inserted between a
/// decision `cmp` and its `jcc` — the Table II/III "compare far from the
/// branch" shape. `allow_loads` admits memory-reading fillers; keep it off
/// inside loops whose registers must survive.
std::string draw_gap_fillers(support::Rng& rng, const Dialect& d, unsigned max_gap,
                             bool allow_loads) {
  std::string out;
  const std::uint64_t count = max_gap == 0 ? 0 : rng.next_below(max_gap + 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    switch (rng.next_below(allow_loads ? 3 : 2)) {
      case 0:
        out += "    mov " + std::string(d.tmp) + ", " +
               std::to_string(draw_imm(rng, d)) + "\n";
        break;
      case 1:
        out += "    mov " + std::string(d.dat) + ", " +
               std::to_string(draw_imm(rng, d)) + "\n";
        break;
      default:
        out += "    mov " + std::string(d.ptr) + ", offset inbuf\n"
               "    movzx " + d.tmp + ", byte ptr [" + d.ptr + "]\n";
        break;
    }
  }
  return out;
}

/// One noise helper of the call tree: scratch arithmetic, an optional
/// two-arm branch, an optional loop with a data-dependent trip count
/// (1..8, derived from an input byte), an optional call deeper into the
/// tree, all seed-chosen.
struct NoiseHelper {
  std::string body;
  bool calls_next = false;
};

NoiseHelper make_noise_helper(support::Rng& rng, const SynthConfig& config,
                              const Dialect& d, unsigned index,
                              unsigned helper_count, unsigned key_len) {
  NoiseHelper helper;
  const std::string name = "noise_" + std::to_string(index);
  const std::string slot =
      index == 0 ? "[" + std::string(d.tmp) + "]"
                 : "[" + std::string(d.tmp) + "+" + std::to_string(8 * index) + "]";
  std::string body;
  body += name + ":\n";
  body += "    mov " + std::string(d.tmp) + ", offset scratch\n";
  body += "    mov " + std::string(d.acc) + ", " + slot + "\n";
  body += "    add " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";
  body += "    xor " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";

  if (chance(rng, config.branch_density_percent)) {
    static constexpr std::string_view kCc[] = {"jb", "ja", "jne", "je"};
    const std::string_view cc = kCc[rng.next_below(4)];
    body += "    cmp " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";
    body += "    " + std::string(cc) + " n" + std::to_string(index) + "_else\n";
    body += "    add " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";
    body += "    jmp n" + std::to_string(index) + "_join\n";
    body += "n" + std::to_string(index) + "_else:\n";
    body += "    xor " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";
    body += "n" + std::to_string(index) + "_join:\n";
  }

  if (chance(rng, config.loop_chance_percent)) {
    const std::uint64_t byte_index = rng.next_below(key_len);
    body += "    mov " + std::string(d.ptr) + ", offset inbuf\n";
    body += "    movzx " + std::string(d.cnt) + ", byte ptr [" + d.ptr + "+" +
            std::to_string(byte_index) + "]\n";
    body += "    and " + std::string(d.cnt) + ", 7\n";
    body += inc_reg(d, d.cnt);
    body += "n" + std::to_string(index) + "_loop:\n";
    body += "    add " + std::string(d.acc) + ", " + std::to_string(draw_imm(rng, d)) + "\n";
    body += "    mov " + slot + ", " + d.acc + "\n";  // Table I mov opportunity
    body += dec_reg(d, d.cnt);
    body += "    cmp " + std::string(d.cnt) + ", 0\n";
    body += "    jne n" + std::to_string(index) + "_loop\n";
  }

  body += "    mov " + slot + ", " + d.acc + "\n";
  // The link register is the only return-address storage on rv32i, so the
  // call tree stays depth-1 there: helpers never call helpers. The rng draw
  // happens on both targets to keep the per-seed shape aligned.
  const bool wants_next = index + 1 < helper_count && chance(rng, 50);
  if (wants_next && !d.rv) {
    helper.calls_next = true;
    body += "    call noise_" + std::to_string(index + 1) + "\n";
  }
  body += "    ret\n";
  helper.body = std::move(body);
  return helper;
}

/// Accumulate-difference byte compare (pincheck's cp_loop shape): xor every
/// input byte against the expected key, OR the differences, one verdict cmp.
std::string byte_compare_accumulate(support::Rng& rng, const SynthConfig& config,
                                    const Dialect& d, const std::string& label,
                                    unsigned offset, unsigned length) {
  const std::string p = label;
  std::string body;
  body += p + ":\n";
  body += "    mov " + std::string(d.ptr) + ", offset inbuf\n";
  if (offset != 0) body += "    add " + std::string(d.ptr) + ", " + std::to_string(offset) + "\n";
  body += "    mov " + std::string(d.ptr2) + ", offset expected_key\n";
  if (offset != 0) body += "    add " + std::string(d.ptr2) + ", " + std::to_string(offset) + "\n";
  body += "    mov " + std::string(d.cnt) + ", " + std::to_string(length) + "\n";
  body += "    xor " + std::string(d.acc) + ", " + d.acc + "\n";
  body += p + "_loop:\n";
  body += "    movzx " + std::string(d.tmp) + ", byte ptr [" + d.ptr + "]\n";
  body += "    movzx " + std::string(d.dat) + ", byte ptr [" + d.ptr2 + "]\n";
  body += "    xor " + std::string(d.tmp) + ", " + d.dat + "\n";
  body += "    or " + std::string(d.acc) + ", " + d.tmp + "\n";
  body += inc_reg(d, d.ptr);
  body += inc_reg(d, d.ptr2);
  body += dec_reg(d, d.cnt);
  body += "    cmp " + std::string(d.cnt) + ", 0\n";
  body += "    jne " + p + "_loop\n";
  body += "    cmp " + std::string(d.acc) + ", 0\n";
  body += draw_gap_fillers(rng, d, config.max_cmp_jcc_gap, /*allow_loads=*/true);
  body += "    jne " + p + "_fail\n";
  body += "    mov " + std::string(d.acc) + ", 1\n";
  body += "    ret\n";
  body += p + "_fail:\n";
  body += "    xor " + std::string(d.acc) + ", " + d.acc + "\n";
  body += "    ret\n";
  return body;
}

/// Early-exit byte compare (the bootloader's vm_loop shape): bail at the
/// first mismatching byte. The per-byte cmp/jcc pair may be separated by
/// immediate-only fillers.
std::string byte_compare_early_exit(support::Rng& rng, const SynthConfig& config,
                                    const Dialect& d, const std::string& label,
                                    unsigned offset, unsigned length) {
  const std::string p = label;
  std::string body;
  body += p + ":\n";
  body += "    mov " + std::string(d.ptr) + ", offset inbuf\n";
  if (offset != 0) body += "    add " + std::string(d.ptr) + ", " + std::to_string(offset) + "\n";
  body += "    mov " + std::string(d.ptr2) + ", offset expected_key\n";
  if (offset != 0) body += "    add " + std::string(d.ptr2) + ", " + std::to_string(offset) + "\n";
  body += "    mov " + std::string(d.cnt) + ", " + std::to_string(length) + "\n";
  body += p + "_loop:\n";
  body += "    movzx " + std::string(d.tmp) + ", byte ptr [" + d.ptr + "]\n";
  body += "    movzx " + std::string(d.dat) + ", byte ptr [" + d.ptr2 + "]\n";
  body += "    cmp " + std::string(d.tmp) + ", " + d.dat + "\n";
  body += draw_gap_fillers(rng, d, config.max_cmp_jcc_gap, /*allow_loads=*/false);
  body += "    jne " + p + "_fail\n";
  body += inc_reg(d, d.ptr);
  body += inc_reg(d, d.ptr2);
  body += dec_reg(d, d.cnt);
  body += "    cmp " + std::string(d.cnt) + ", 0\n";
  body += "    jne " + p + "_loop\n";
  body += "    mov " + std::string(d.acc) + ", 1\n";
  body += "    ret\n";
  body += p + "_fail:\n";
  body += "    xor " + std::string(d.acc) + ", " + d.acc + "\n";
  body += "    ret\n";
  return body;
}

/// Digest compare (the bootloader's compute_hash shape): seeded basis and
/// odd prime, expected value loaded from a data quad.
std::string digest_compare(support::Rng& rng, const SynthConfig& config,
                           const Dialect& d, const std::string& label,
                           unsigned length, std::uint64_t basis,
                           std::uint64_t prime) {
  const std::string p = label;
  std::string body;
  body += p + ":\n";
  body += "    mov " + std::string(d.ptr) + ", offset inbuf\n";
  body += "    mov " + std::string(d.cnt) + ", " + std::to_string(length) + "\n";
  body += "    mov " + std::string(d.acc) + ", " +
          support::hex_string(d.rv ? (basis & 0xFFFFFFFFULL) : basis) + "\n";
  body += p + "_loop:\n";
  body += "    movzx " + std::string(d.tmp) + ", byte ptr [" + d.ptr + "]\n";
  body += "    xor " + std::string(d.acc) + ", " + d.tmp + "\n";
  if (d.rv) {
    // h *= 33 without a multiplier: h = (h << 5) + h.
    body += "    mov " + std::string(d.dat) + ", " + d.acc + "\n";
    body += "    shl " + std::string(d.acc) + ", 5\n";
    body += "    add " + std::string(d.acc) + ", " + d.dat + "\n";
  } else {
    body += "    mov " + std::string(d.ptr2) + ", " + support::hex_string(prime) + "\n";
    body += "    imul " + std::string(d.acc) + ", " + d.ptr2 + "\n";
  }
  body += inc_reg(d, d.ptr);
  body += dec_reg(d, d.cnt);
  body += "    cmp " + std::string(d.cnt) + ", 0\n";
  body += "    jne " + p + "_loop\n";
  body += "    mov " + std::string(d.ptr2) + ", offset expected_digest\n";
  body += "    mov " + std::string(d.ptr2) + ", [" + d.ptr2 + "]\n";
  body += "    cmp " + std::string(d.acc) + ", " + d.ptr2 + "\n";
  body += draw_gap_fillers(rng, d, config.max_cmp_jcc_gap, /*allow_loads=*/true);
  body += "    jne " + p + "_fail\n";
  body += "    mov " + std::string(d.acc) + ", 1\n";
  body += "    ret\n";
  body += p + "_fail:\n";
  body += "    xor " + std::string(d.acc) + ", " + d.acc + "\n";
  body += "    ret\n";
  return body;
}

}  // namespace

DecisionKind decision_kind(const SynthConfig& config) {
  support::Rng rng(config.seed);
  return pick_decision(rng, config);
}

Guest generate(const SynthConfig& config) {
  support::Rng rng(config.seed);
  const Dialect d = dialect_for(config.arch);

  // ---- decision, key, inputs (fixed draw order: the determinism contract).
  const DecisionKind kind = pick_decision(rng, config);
  const unsigned min_len = config.min_key_len < 2 ? 2 : config.min_key_len;
  const unsigned max_len = config.max_key_len < min_len ? min_len : config.max_key_len;
  const unsigned key_len =
      min_len + static_cast<unsigned>(rng.next_below(max_len - min_len + 1));

  std::string good_key = draw_token(rng, key_len);

  const bool uses_digest =
      kind == DecisionKind::kDigestCompare || kind == DecisionKind::kMultiStageGuard;
  const std::uint64_t basis = rng.next();
  const std::uint64_t prime = rng.next() | 1;

  // One mutated byte; for digest decisions the digests must also differ
  // (redraw deterministically in the vanishingly unlikely collision case).
  std::string bad_key = good_key;
  while (true) {
    const std::size_t pos = static_cast<std::size_t>(rng.next_below(key_len));
    const char replacement = draw_char(rng);
    if (replacement == good_key[pos]) continue;
    bad_key = good_key;
    bad_key[pos] = replacement;
    if (!uses_digest || synth_digest(d, good_key, basis, prime) !=
                            synth_digest(d, bad_key, basis, prime)) {
      break;
    }
  }

  // ---- observable contract.
  const std::string banner = "SYNTH SERVICE " + draw_token(rng, 6) + "\n";
  const std::string granted = "ACCESS GRANTED " + draw_token(rng, 4) + "\n";
  const std::string secret = "SECRET " + draw_token(rng, 8) + "\n";
  const std::string denied = "ACCESS DENIED " + draw_token(rng, 4) + "\n";
  const std::string ioerror = "IO ERROR\n";

  Guest guest;
  guest.name = "synth_" + std::to_string(config.seed);
  guest.arch = config.arch;
  guest.good_input = good_key;
  guest.bad_input = bad_key;
  guest.good_output = banner + granted + secret;
  guest.bad_output = banner + denied;
  guest.good_exit = 0;
  guest.bad_exit = 1;

  // ---- noise-helper call tree.
  const unsigned helper_count =
      config.max_noise_helpers == 0
          ? 0
          : static_cast<unsigned>(rng.next_below(config.max_noise_helpers + 1));
  std::vector<NoiseHelper> helpers;
  helpers.reserve(helper_count);
  for (unsigned i = 0; i < helper_count; ++i) {
    helpers.push_back(make_noise_helper(rng, config, d, i, helper_count, key_len));
  }
  // Helpers not reached through a deeper call are rooted in _start, either
  // before the decision or on the privileged continuation.
  std::vector<unsigned> start_calls_pre;
  std::vector<unsigned> start_calls_post;
  for (unsigned i = 0; i < helper_count; ++i) {
    if (i > 0 && helpers[i - 1].calls_next) continue;  // called by helper i-1
    if (chance(rng, 50)) {
      start_calls_pre.push_back(i);
    } else {
      start_calls_post.push_back(i);
    }
  }

  // ---- decision helpers.
  std::string decision_text;
  bool needs_expected_key = false;
  std::string expected_key_bytes = good_key;  // the byte-compare reference
  unsigned stage_count = 1;
  switch (kind) {
    case DecisionKind::kByteCompare:
      needs_expected_key = true;
      decision_text = chance(rng, 50)
                          ? byte_compare_accumulate(rng, config, d, "check_stage0", 0,
                                                    key_len)
                          : byte_compare_early_exit(rng, config, d, "check_stage0", 0,
                                                    key_len);
      break;
    case DecisionKind::kDigestCompare:
      decision_text =
          digest_compare(rng, config, d, "check_stage0", key_len, basis, prime);
      break;
    case DecisionKind::kMultiStageGuard: {
      // Stage 0 guards the key prefix byte-wise, stage 1 digests the whole
      // input — both must pass.
      needs_expected_key = true;
      stage_count = 2;
      const unsigned prefix = (key_len + 1) / 2;
      decision_text =
          byte_compare_early_exit(rng, config, d, "check_stage0", 0, prefix) + "\n" +
          digest_compare(rng, config, d, "check_stage1", key_len, basis, prime);
      break;
    }
  }

  // ---- _start.
  std::string text;
  text += ".global _start\n";
  text += ".section .text\n";
  text += "_start:\n";
  text += write_msg(d, "msg_banner", banner.size());
  text += "    mov " + std::string(d.acc) + ", 0\n";
  text += "    mov " + std::string(d.ptr2) + ", 0\n";
  text += "    mov " + std::string(d.ptr) + ", offset inbuf\n";
  text += "    mov " + std::string(d.dat) + ", " + std::to_string(key_len) + "\n";
  text += "    syscall\n";
  text += "    cmp " + std::string(d.acc) + ", " + std::to_string(key_len) + "\n";
  text += "    jne io_error\n";
  for (const unsigned i : start_calls_pre) {
    text += "    call noise_" + std::to_string(i) + "\n";
  }
  for (unsigned stage = 0; stage < stage_count; ++stage) {
    text += "    call check_stage" + std::to_string(stage) + "\n";
    text += "    cmp " + std::string(d.acc) + ", 1\n";
    text += draw_gap_fillers(rng, d,
                             config.max_cmp_jcc_gap > 2 ? 2 : config.max_cmp_jcc_gap,
                             /*allow_loads=*/false);
    text += "    jne deny\n";
  }
  for (const unsigned i : start_calls_post) {
    text += "    call noise_" + std::to_string(i) + "\n";
  }
  text += "grant:\n";
  text += write_msg(d, "msg_granted", granted.size());
  text += write_msg(d, "msg_secret", secret.size());
  text += exit_with(d, 0);
  text += "deny:\n";
  text += write_msg(d, "msg_denied", denied.size());
  text += exit_with(d, 1);
  text += "io_error:\n";
  text += write_msg(d, "msg_ioerror", ioerror.size());
  text += exit_with(d, 3);
  text += "\n";
  text += decision_text;
  for (const NoiseHelper& helper : helpers) {
    text += "\n" + helper.body;
  }

  // ---- data.
  text += "\n.section .data\n";
  text += "inbuf: .zero " + std::to_string(((key_len + 15) / 16) * 16) + "\n";
  const unsigned scratch_slots = helper_count == 0 ? 1 : helper_count;
  text += "scratch: .quad 0";
  for (unsigned i = 1; i < scratch_slots; ++i) text += ", 0";
  text += "\n";
  if (needs_expected_key) {
    text += "expected_key: .byte ";
    for (std::size_t i = 0; i < expected_key_bytes.size(); ++i) {
      if (i != 0) text += ", ";
      text += std::to_string(static_cast<unsigned>(
          static_cast<unsigned char>(expected_key_bytes[i])));
    }
    text += "\n";
  }
  if (uses_digest) {
    text += "expected_digest: .quad " +
            support::hex_string(synth_digest(d, good_key, basis, prime)) + "\n";
  }
  const auto emit_msg = [&text](const std::string& symbol, const std::string& message) {
    // Message charset is [A-Z0-9 ] plus the trailing newline — the only
    // byte needing an escape.
    std::string escaped = message;
    escaped.pop_back();
    text += symbol + ": .asciz \"" + escaped + "\\n\"\n";
  };
  emit_msg("msg_banner", banner);
  emit_msg("msg_granted", granted);
  emit_msg("msg_secret", secret);
  emit_msg("msg_denied", denied);
  emit_msg("msg_ioerror", ioerror);

  guest.assembly = std::move(text);
  return guest;
}

Guest generate(std::uint64_t seed) {
  SynthConfig config;
  config.seed = seed;
  return generate(config);
}

Guest generate(std::uint64_t seed, isa::Arch arch) {
  SynthConfig config;
  config.seed = seed;
  config.arch = arch;
  return generate(config);
}

}  // namespace r2r::guests::synth
