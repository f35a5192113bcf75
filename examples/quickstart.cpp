// Quickstart: the 60-second tour of r2r.
//
//   1. Write a tiny guarded program in the subset assembly.
//   2. Assemble it to an ELF image and run it in the emulator.
//   3. Fault-simulate it (instruction-skip model) and find the successful
//      fault that bypasses the check.
//   4. Patch the binary with the paper's local protection patterns.
//   5. Re-run the campaign: the bypass is gone.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "bir/assemble.h"
#include "bir/module.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "isa/printer.h"
#include "patch/patcher.h"

int main() {
  using namespace r2r;

  // 1. A PIN-style check: one byte from stdin, privileged branch.
  const char* source = R"(
.global _start
_start:
    mov rax, 0              ; read(0, buf, 1)
    mov rdi, 0
    mov rsi, offset buf
    mov rdx, 1
    syscall
    mov rsi, offset buf
    movzx rbx, byte ptr [rsi]
    cmp rbx, 'A'            ; authorized input is "A"
    jne deny
grant:
    mov rax, 1              ; write(1, "YES\n", 4)
    mov rdi, 1
    mov rsi, offset yes
    mov rdx, 4
    syscall
    mov rax, 60             ; exit(0)
    mov rdi, 0
    syscall
deny:
    mov rax, 1
    mov rdi, 1
    mov rsi, offset no
    mov rdx, 3
    syscall
    mov rax, 60             ; exit(1)
    mov rdi, 1
    syscall
.section .data
buf: .zero 8
yes: .asciz "YES\n"
no:  .asciz "NO\n"
)";

  // 2. Assemble and run.
  bir::Module module = bir::module_from_assembly(source);
  elf::Image image = bir::assemble(module);
  std::printf("assembled: %llu bytes of code, entry %#llx\n",
              static_cast<unsigned long long>(image.code_size()),
              static_cast<unsigned long long>(image.entry));

  const emu::RunResult good = emu::run_image(image, "A");
  const emu::RunResult bad = emu::run_image(image, "B");
  std::printf("run(\"A\"): %s (exit %lld)\n",
              good.output.substr(0, good.output.size() - 1).c_str(),
              static_cast<long long>(good.exit_code));
  std::printf("run(\"B\"): %s (exit %lld)\n\n",
              bad.output.substr(0, bad.output.size() - 1).c_str(),
              static_cast<long long>(bad.exit_code));

  // 3. Fault campaign: which instruction-skips flip "NO" into "YES"?
  fault::CampaignConfig config;
  config.models.bit_flip = false;  // instruction-skip model only
  sim::CampaignResult campaign = fault::run_campaign(image, "A", "B", config).order1;
  std::printf("fault campaign (skip model): %llu faults injected, %zu successful\n",
              static_cast<unsigned long long>(campaign.total_faults),
              campaign.vulnerabilities.size());
  for (const fault::Vulnerability& v : campaign.vulnerabilities) {
    const auto index = module.index_of_address(v.address);
    std::printf("  VULNERABLE %#llx: %s\n", static_cast<unsigned long long>(v.address),
                index ? isa::print(*module.text[*index].instr).c_str() : "?");
  }

  // 4. Patch every vulnerable point with the paper's local patterns.
  const patch::PatchStats stats = patch::apply_patches(module, campaign.vulnerabilities);
  image = bir::assemble(module);
  std::printf("\npatched %llu site(s); code is now %llu bytes\n",
              static_cast<unsigned long long>(stats.total_applied()),
              static_cast<unsigned long long>(image.code_size()));

  // 5. Verify: behaviour preserved, bypass eliminated.
  const emu::RunResult good2 = emu::run_image(image, "A");
  const emu::RunResult bad2 = emu::run_image(image, "B");
  std::printf("run(\"A\") after patch: exit %lld; run(\"B\"): exit %lld\n",
              static_cast<long long>(good2.exit_code),
              static_cast<long long>(bad2.exit_code));
  campaign = fault::run_campaign(image, "A", "B", config).order1;
  std::printf("fault campaign after patch: %zu successful fault(s), %llu detected\n",
              campaign.vulnerabilities.size(),
              static_cast<unsigned long long>(campaign.count(fault::Outcome::kDetected)));
  return campaign.vulnerabilities.empty() ? 0 : 1;
}
