"""Pinned build artifacts: the sha256 of ``build_tree(g, seed).to_json()`` on
a torus, two genus-2 handle graphs and a planar triangulation, seeds 1-3.

A change that moves any hash changed what a build writes.  The same hashes
hold on the pure and the compiled max-flow kernel, so running this file on
both also checks that the two kernels agree byte for byte.
"""

import hashlib
import random

import pytest

from surfcut import cli, gen


def instance(name, seed):
    """The named instance with weights drawn from a seeded generator."""
    rng = random.Random(f"artifact-{name}-{seed}")
    if name == "planar50":
        return gen.planar_triangulation(50, seed)
    k = int(name[-1])
    g = gen.torus_grid(k, weights=[rng.randint(10, 100)
                                   for _ in range(2 * k * k)])
    if name.startswith("handle"):
        g = gen.add_edge_between_faces(g, 0, k * k // 2,
                                       rng.randint(10, 100))
    return g


PINNED = {
    ("torus6", 1):
        "b348f6cf1d2bbe70ebd6f444473c5d4faa86f59913e13bd7b54e178d831e98b1",
    ("torus6", 2):
        "b3944a8b514952c29f001a8cc8f97903a2ff1a163c67ed4421e1626033d4b2f2",
    ("torus6", 3):
        "f5b5ec47d3cf83af07ca8b2c72184454d84fa7836e4bfb8dbadc83acab766000",
    ("handle3", 1):
        "d5f70ecaf7c94148a753a01b3e086245eeee9fb98b8365291b3ccca6d962143b",
    ("handle3", 2):
        "f9d4de15f3fd6186a9e69c65ea12715a1a7a5600720c485c791024e4e6390c4f",
    ("handle3", 3):
        "ae9d52f8a0377679c7174e6a6eed787fe33bb73a0c8f6255037f0b41dd26bc8e",
    ("handle2", 1):
        "f49eea72414b4d5e655612d22654b855c933373de0749ae16b896fd01a50d54b",
    ("handle2", 2):
        "cfbe8d6ace1b333285900112d92941700c5c70a9e6c41506be2e0fcd4eeda6b1",
    ("handle2", 3):
        "2b6f405b668b87e391434522e00288016cd01fc64a36a0981a27610f5ebf2885",
    ("planar50", 1):
        "78abf43f14d0e9e626014fa4b19c7831ecb6f741baf46a1a3ccee6a756a473ad",
    ("planar50", 2):
        "36195c78feee47f83be5f4c6849a4624ca9fc0ec2f70e3bc4973c211ac9df123",
    ("planar50", 3):
        "2c9ba8aefd2cd20e47e2f78dfcfed0c0b0f39adf10c1c41a4684f1a41bd36883",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_artifact_hash(name, seed):
    tree = cli.build_tree(instance(name, seed), seed)
    assert hashlib.sha256(tree.to_json().encode()).hexdigest() == \
        PINNED[name, seed]
