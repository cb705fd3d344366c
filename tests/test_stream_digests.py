"""Golden digests of the sampling stream, pinned before any sampler change.

sample(model, seed) is a pure function of its arguments, and that contract
is what makes runs reproducible across versions.  Each case hashes, over a
fixed list of seeds, the edge-list text of the plain sample and the repr of
the captured latent state.  A digest that moves means the stream moved:
that needs a new, opt-in stream, not a new digest.
"""

import hashlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs.distributions import (blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, realize,
                                     sample)
from depgraphs.graphs import num_edges, to_edge_list

SEEDS = (0, 1, 12345, 2 ** 63 + 5, 2 ** 64 - 1)

CASES = {
    "er-1-0.3": lambda: erdos_renyi(1, 0.3),
    "er-2-1/2": lambda: erdos_renyi(2, Fraction(1, 2)),
    "er-7-0.3": lambda: erdos_renyi(7, 0.3),
    "er-40-0": lambda: erdos_renyi(40, 0.0),
    "er-40-1": lambda: erdos_renyi(40, 1.0),
    "er-200-1/20": lambda: erdos_renyi(200, Fraction(1, 20)),
    "star-9-1/2-1": lambda: correlated_star(9, Fraction(1, 2), 1),
    "star-12-1/4-3": lambda: correlated_star(12, Fraction(1, 4), 3),
    "star-120-0.1-7": lambda: correlated_star(120, 0.1, 7),
    "gadget-40-0.2-3": lambda: connectivity_gadget(40, 0.2, 3),
    "gadget-200-1/20-8": lambda: connectivity_gadget(200, Fraction(1, 20), 8),
    "edge-block-4-2-2": lambda: edge_block_exact(4, 2, 2),
    "edge-block-6-2-5": lambda: edge_block_exact(6, 2, 5),
    "edge-block-12-1-2": lambda: edge_block_exact(12, 1, 2),
    "edge-block-257-1-2": lambda: edge_block_exact(257, 1, 2),
    "edge-block-30-1-3": lambda: edge_block_exact(30, 1, 3),
    "edge-block-25-3-4": lambda: edge_block_exact(25, 3, 4),
    "custom-4-1/2": lambda: custom_blocks(4, Fraction(1, 2),
                                          blocks_from_text(4, "0 3; 1 2")),
    "custom-8-0.4": lambda: custom_blocks(
        8, 0.4, blocks_from_text(8, "27 0 5; 3 4 1 2; 26 9; 11 13 17 19 23")),
}

# case -> (digest of the edge lists, digest of the latent-state reprs)
DIGESTS = {
    "er-1-0.3": ("4092a8710df192b78a25cee472765e412f731f74546d05dbc47249c94efbab3f",
        "242f35f0c6976bbf55fd0bd686f32e29cd2e102148492f71bde78866257a5017"),
    "er-2-1/2": ("8fe9edaca9195e622a3a74277cd635686b5ba376ccf49f95b1a43cc5fc9ce9c5",
        "c58904d809273fd78493ad528082a60bd9e2525e2dd06a15db76a6a600e99048"),
    "er-7-0.3": ("7570e410e9f2f3e5aeda89f87c3737cbd7e8879e9ce011093ebcaadb2343aadc",
        "b6f48d26984d59816c91c61e84ad8e22f92bd3f4a5d8ca45f690633b2cc3b0d4"),
    "er-40-0": ("527c9e9134fed42658d4d888cca724eda084be060121b8ba768e9a38e500e7a1",
        "0b86b3ee042bc5a7f25b4adbce82e02d7e4cb9364f790152d999d76c6a91dc4a"),
    "er-40-1": ("b17a59cfb8a4ada4b1b4d324d4419ec22554f50c0a9f94860fd5799ad1b7e905",
        "62173cdb7d0da8c28e6dd4a3b0e1837e93633419c27d3546b3779178e027a190"),
    "er-200-1/20": ("1d6883265e3d9644383b9e89c166a820fe8964bbdb20cb7dafd70c46371f6296",
        "fd4ecf2c2c58636120f0933b8164e3b43c722885b147ab4408c8e1a9913cbaca"),
    "star-9-1/2-1": ("c506ba3449b5156ecadfd3b7b26e07ced1e1a7d35fb7a371c4aeb48555fec519",
        "04036efb98ef435ca625d8789e65f28101014406d1bfc3b51885456d1ac09cb1"),
    "star-12-1/4-3": ("be5398cfeb8ad954808f55350bcff10c696a68b615006ada1165cb0b4e1a0763",
        "678a56ad1bf39193153773495e987d17371012f83f9e3b5f1c920217e6f23aa5"),
    "star-120-0.1-7": ("0e29978000ada416c43f81bac30b87862afe2e82bd4ebe7351512784bbb25631",
        "1684e428000e427d6d08e566e2c3b7df6ee25553dd6b60f1dbf50bf0bf640d1d"),
    "gadget-40-0.2-3": ("6d1e09c160be90f4c9b77e3365f00c706f1ebb020fcd7597bc302574ac4d6944",
        "a8c8f4664325c16e3939fd5f189db5759b7cdc0e2464f00e4aeb4b0619f5f7d2"),
    "gadget-200-1/20-8": ("5cd5d037f331bf326dba2e4e1f1165c9ed2b0b4836323976e9cd1fcd1e52379d",
        "9c3a69089e670a08cc3f5757020c23e0292225d2edd1bb429282c41015144f8a"),
    "edge-block-4-2-2": ("3ce623abfbc058a3f02c37fa079f37426efdc8ea78ee13883020114157157894",
        "ac6ab389a2cd584ae090a9c5b1a2ece33d3c2803b1b588c74ee42234eea0d6ef"),
    "edge-block-6-2-5": ("d9d0c5a06f6fd7e02d6b448ad2b022876f828fa25a85f114e7cb610ea061aae2",
        "095b676cb5d5712f0c62ab3ff3351aa44873b84a3a0e12899b5a67cb4404710f"),
    "edge-block-12-1-2": ("fd85247f16648a831add5745b47409435fadfa17cfdc215cf7ceab898428d677",
        "a874bfe4e0a5da258d7cad93125569f281d5704468dd18fd5462db79cdd5c511"),
    "edge-block-257-1-2": ("2b50947f3eba7be3b5df2b104c8ed4142392e1237f5601ab61856a80f800c006",
        "d3bf06f69462599e7f0268ae2c257c51c5fb44c5c6e7fda69e83436eb42ec146"),
    "edge-block-30-1-3": ("687c57b369df08be8a0f1db9b31563be645ff7b68df1655487e157921d00b6ef",
        "16f22390c8b9a285a6fb7420d69152ce9dac84dafca0b4241330c3340e9277a2"),
    "edge-block-25-3-4": ("079be04b99d56a69f184c83695151d3763cf37485cb1fceec63bc028649ff0d3",
        "9a41338af3f7c61478c0683994315f627ddb98318684062bb95302828b91668c"),
    "custom-4-1/2": ("5b5e82bea39171c4d7e251a8651d7d72e9b71774f8c4228659196652cba9a39e",
        "668825fcd1a1bfed7a65d2f33600e06ae43e7db5489b1a18ec2ee86b2532dd7d"),
    "custom-8-0.4": ("274cbca3ed17eaf7957840bc7eadeafbd82b5ad05c3c196e4fa9be9881537449",
        "df8f3aba4e1414fe8f79b23b719e75b7852e8bc55aa76b9e4d95c7645cbe5645"),
}


def _stream_digests(model) -> tuple[str, str]:
    graphs = hashlib.sha256()
    states = hashlib.sha256()
    for seed in SEEDS:
        graphs.update(to_edge_list(sample(model, seed).graph).encode())
        graphs.update(b"\0")
        states.update(repr(sample(model, seed, keep_latents=True).latent_state)
                      .encode())
        states.update(b"\0")
    return graphs.hexdigest(), states.hexdigest()


def test_digest_table_covers_every_case():
    assert set(DIGESTS) == set(CASES)


def test_stream_digests_are_pinned():
    for name, make in CASES.items():
        assert _stream_digests(make()) == DIGESTS[name], name


@st.composite
def _partitions(draw):
    n = draw(st.integers(2, 9))
    edges = draw(st.permutations(range(num_edges(n))))
    cuts = sorted(draw(st.sets(st.integers(1, len(edges) - 1),
                               max_size=len(edges) - 1))) if len(edges) > 1 else []
    bounds = [0, *cuts, len(edges)]
    blocks = [edges[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    p = draw(st.sampled_from([0.0, 0.3, Fraction(1, 2), 1.0]))
    return custom_blocks(n, p, blocks)


@settings(max_examples=60, deadline=None)
@given(_partitions(), st.integers(0, 2 ** 64 - 1))
def test_capture_and_replay_match_the_plain_sample(model, seed):
    plain = sample(model, seed).graph
    out = sample(model, seed, keep_latents=True)
    assert out.graph == plain
    assert realize(model, out.latent_state) == plain
