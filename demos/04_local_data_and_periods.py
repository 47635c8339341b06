"""Local reduction data, Tate periods, and real periods for the dataset.

Runs the local algorithm at every bad prime of every embedded curve,
then inverts j(q) = q^-1 + 744 + 196884 q + ... at a multiplicative
prime, and finishes with the two real periods whose ratio is exactly 37.
"""

from iwasawa.dataset import dataset_load
from iwasawa.padics import iwasawa_log
from iwasawa.periods import real_period
from iwasawa.tate import bad_primes, conductor, tate_local, tate_period

for entry in dataset_load():
    E = entry.curve()
    locs = [tate_local(E, ell) for ell in bad_primes(E)]
    cells = ", ".join(f"{d.prime}: {d.kodaira} {d.kind.replace('multiplicative_', '')}"
                      f" c={d.tamagawa}" for d in locs)
    print(f"{entry.label:8s} N = {conductor(E):5d}   {cells}")

print("\nTate period of the conductor-11 curve at 11:")
E11 = next(e for e in dataset_load() if e.label == "11a").curve()
q = tate_period(E11, 11, digits=12)
print(f"  q = {q.digits_str(8)}  with v_11(q) = {q.valuation()} = -ord_11(j)")
print(f"  log_11(q) has valuation {iwasawa_log(q).valuation()}"
      "  (log_11 kills the 11-power part)")

print("\nReal periods of the 37-isogenous pair of conductor 1225:")
e1 = next(e for e in dataset_load() if e.label == "1225e1").curve()
e2 = next(e for e in dataset_load() if e.label == "1225e2").curve()
o1, o2 = real_period(e1), real_period(e2)
print(f"  {float(o1):.6f} and {float(o2):.6f}; ratio {float(o1 / o2):.9f}")
print("  The integral ratio reflects the degree-37 isogeny between them.")
