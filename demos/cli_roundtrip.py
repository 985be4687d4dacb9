#!/usr/bin/env python3
"""Round-trip the command line interface: solve, re-verify, tamper, reject.

Runs the real `python -m ballsaddle` process on a JSON config, confirms the
certificate is byte-stable across reruns (minus wall time), re-verifies it
from the file alone, then corrupts one coordinate and watches verification
fail with a named check and exit code 3. Also exercises the hypothesis
exit code 2 by asking for an inadmissible radius, and shows that the same
radius in heuristic mode writes a watermarked certificate that names its
failed checks (exit code 3).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

failures = []


def check(label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}")
    if not ok:
        failures.append(label)


def run(*args):
    proc = subprocess.run([sys.executable, "-m", "ballsaddle", *args],
                          capture_output=True, text=True)
    return proc


tmp = Path(tempfile.mkdtemp(prefix="ballsaddle-demo-"))
cfg = tmp / "vi.json"
cfg.write_text(json.dumps({
    "problem": {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [2.0, 0.0], "rho": 1.0},
    "r": 0.25,
    "seed": 7,
}, indent=2))
print(f"== config ==\n{cfg.read_text()}")

# ======================================================================
# Solve through the CLI
# ======================================================================
print("== ballsaddle vi ==")
cert_path = tmp / "cert.json"
proc = run("vi", "--config", str(cfg), "--out", str(cert_path))
print(f"  exit = {proc.returncode}   stdout: {proc.stdout.strip()}")
check("exit code 0 on a certified run", proc.returncode == 0)
check("status line announces the pass", proc.stdout.startswith("PASS vi:"))

doc = json.loads(cert_path.read_text())
x = doc["certificate"]["solution"]["x_star"]
print(f"  x* from file = {x}")
check("certificate envelope has the expected format tag",
      doc["format"] == "ballsaddle-certificate/3")
check("solution in the file is (-1/4, 0)",
      abs(x[0] + 0.25) <= 1e-8 and abs(x[1]) <= 1e-8)

# ======================================================================
# Reruns are byte-stable apart from the wall clock
# ======================================================================
second = tmp / "cert2.json"
run("vi", "--config", str(cfg), "--out", str(second))
a = json.loads(cert_path.read_text())
b = json.loads(second.read_text())
a.pop("wall_time"), b.pop("wall_time")
check("rerun reproduces the certificate byte for byte (minus wall_time)",
      json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))

# ======================================================================
# Verify from the file alone
# ======================================================================
print("\n== ballsaddle verify ==")
proc = run("verify", "--config", str(cert_path))
print(f"  exit = {proc.returncode}   stdout: {proc.stdout.strip()}")
check("verification of an honest certificate exits 0", proc.returncode == 0)

tampered = tmp / "tampered.json"
doc["certificate"]["solution"]["x_star"] = [0.2, 0.1]
tampered.write_text(json.dumps(doc, indent=2))
proc = run("verify", "--config", str(tampered))
print(f"  tampered exit = {proc.returncode}")
check("tampered solution is rejected with exit 3", proc.returncode == 3)
try:
    named = json.loads(proc.stdout)["failures"]
except (json.JSONDecodeError, KeyError):
    named = []
print(f"  tampered failures: {named}")
check("failures name the broken direction identity and inequality check",
      {"direction", "vi-inequality"} <= set(named))

# ======================================================================
# Hypothesis failures get their own exit code
# ======================================================================
print("\n== inadmissible radius ==")
proc = run("vi", "--config", str(cfg), "--r", "0.3")
print(f"  exit = {proc.returncode}   stderr: {proc.stderr.strip()}")
check("radius beyond the admissible bound exits 2", proc.returncode == 2)
check("stderr quantifies the shortfall", "deficit" in proc.stderr)

# ======================================================================
# Heuristic mode skips the gate and writes a watermarked failing certificate
# ======================================================================
print("\n== heuristic run beyond the admissible radius ==")
heuristic_path = tmp / "heuristic.json"
proc = run("vi", "--config", str(cfg), "--r", "1.0", "--heuristic", "--out", str(heuristic_path))
print(f"  exit = {proc.returncode}   stderr: {proc.stderr.strip()}")
check("a failed check exits 3", proc.returncode == 3)
written = json.loads(heuristic_path.read_text()) if heuristic_path.exists() else {}
body = written.get("certificate", {})
check("the certificate is written, watermarked heuristic and not passed",
      body.get("mode") == "heuristic" and body.get("passed") is False)
check("stderr names the collapse check", "collapse" in proc.stderr)

print(f"\n{'OK: CLI round trip holds' if not failures else 'FAILED: ' + ', '.join(failures)}")
sys.exit(1 if failures else 0)
