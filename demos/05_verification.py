#!/usr/bin/env python3
"""The built-in oracle: certificates, identity audits, bracket audits.

Convexity certificates sample divided differences over random
well-separated points using function values only, so they are an
independent check on the analytic derivative stacks, and evidence, not
proof.  The audits replay the decomposition identities and the bound
directions over randomized suites; the bracket audit takes each function's
class exactly (closed-form derivative signs, exact Bernstein signs for a
polynomial) from `classify`, so no sample count reaches it.  The
wrong-parity injection at the end shows the direction dispatcher is doing
real work.
"""

from elrbounds import (
    AuditConfig,
    FunctionModel,
    GeneratorSpec,
    audit_brackets,
    audit_identities,
    certify_convexity,
    make_generator,
)
import numpy as np

print("== convexity certificates ==")
cube = FunctionModel.from_polynomial([0, 0, 0, 1], (0.0, 2.0), name="t^3")
cert = certify_convexity(cube, 3, samples=300, seed=0)
print(f"  t^3 at order 3: {cert.verdict}  (differences in [{cert.min_dd:.6f}, {cert.max_dd:.6f}])")

kl = make_generator(GeneratorSpec("kl", domain=(0.5, 2.0)))
for n in (2, 3, 4):
    cert = certify_convexity(kl, n, samples=300, seed=0)
    print(f"  kl at order {n}: {cert.verdict}")

sine = FunctionModel(fn=np.sin, deriv_fn=lambda k, t: np.sin(t + k * np.pi / 2), domain=(0.0, 6.0), name="sin")
cert = certify_convexity(sine, 3, samples=300, seed=0)
print(f"  sin on [0, 6] at order 3: {cert.verdict}  (third derivative changes sign)")

print()
print("== identity audit: lr always equals terms + remainder ==")
report = audit_identities(AuditConfig(cases=200, seed=42))
print(f"  cases={report.cases} skipped={report.skipped} "
      f"max residual={report.max_residual:.3e} failures={len(report.failures)}")

print()
print("== bracket audit: certified direction always holds ==")
report = audit_brackets(AuditConfig(seed=42, cases_per_theorem=100))
print(f"  cases={report.cases} skipped={report.skipped} tight={report.tight} "
      f"worst escape={report.max_residual:.3e} failures={len(report.failures)}")

print()
print("== negative control: lie about the convexity class ==")
report = audit_brackets(AuditConfig(seed=42, cases_per_theorem=20, inject_wrong_parity=True))
print(f"  injected wrong classes -> {len(report.failures)} violations reported")
first = report.failures[0]
print(f"  first: {first['theorem']} claimed={first['claimed']} "
      f"certified={first['certified']} violation={first['violation']:.3e}")
