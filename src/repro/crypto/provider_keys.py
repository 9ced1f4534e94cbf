"""Provider keys of the simulated PKI, as data.

``internet/generator.py`` names one leaf key per provider group
(``key-<group>``) and one self-signed "missing SNI" key for the groups
that serve one (``selfsigned-<group>``).  Neither label depends on the
world seed, the calendar week or the scale, so every world ever built
meets the same 41 keys, and minting them was most of a cold
``build_world``.  They are shipped here the way TLS test suites ship
theirs: as fixtures.

Each entry is the prime pair ``generate_rsa_key(bits,
DeterministicRandom(label))`` finds; :func:`repro.crypto.rsa.derived_rsa_key`
rebuilds ``n`` and ``d`` from it.  That derivation stays the definition:
``tests/test_crypto_rsa.py`` regenerates every entry from its label,
requires equality, requires the label set to be exactly what a world
build asks for, and prints the line to paste when it is not.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["PROVIDER_KEY_PRIMES"]

# (bits, label) -> (p, q)
PROVIDER_KEY_PRIMES: Dict[Tuple[int, str], Tuple[int, int]] = {
    (512, "key-a2hosting"): (0xe97bf7fc4ef6c4279189cb6d1129c30894505e3bf32be5ff5b9ec144fb82b0cf, 0xe2d5421e250c845b17429d38db4e4f4a17ceb1aa6aa5b5b8ce19a35088084461),
    (512, "key-akamai"): (0xf1d024ea3461ecf5d1d36483bd75cf99f164196d97a044ba3ab3f325b77dc339, 0xf6702593ae0d2767517a29a084dcfccce27a5c0c1f9fd1c31c6a4d651b44674f),
    (512, "key-amazon"): (0xedb2ae0ada00a89d5d4833ae983a6788952cb3c5c2ab1d679cadccf1897858c9, 0xf08ad6e2d1b39cfac73f1210e7e0328e846967e1ea43b8424e8733b8be980209),
    (512, "key-caddy-individuals"): (0xcf9fcd1b1115528bd48b5c31e8bc396d365f28692c0e8b3ae6a284da13cac3ef, 0xf2f83f75ebc2710dbe03c2e275411d182306201d7b340cb1f002d1e95ab7eba1),
    (512, "key-cloudflare"): (0xd7a321782e347a9bf9c04f3bf35317f4a62faa7bc9b1ed2e30e65e12c6c068b7, 0xcb6073a1bb101ccec4b3219fffef05897cf93c0c68fce627abcc35d7e4b29009),
    (512, "key-cloudflare-london"): (0xddfdec75491bae22ef536ebd4a7e40e018213b2b560b4b2220d570fb2b4ef16b, 0xeda633d9b4d263f36c72eda01f6ac721b9be9e877ce22e1c83214434a69b6d47),
    (512, "key-digitalocean"): (0xd20f3769acacc1b8f2f9431612e98fd14c1aaff499fda5e289a3ab9bcc600cc1, 0xf727a224f8f984b8e73d213309ff96d95853b385df6b118d51ae669425c491cb),
    (512, "key-eurobyte"): (0xfb71ec96502e92a44a1f873a061a54cd3a5d5c4ec87a73b0578f28d56a2ad425, 0xe60b1c4d930ec96d9ad0e2266e321fb89be50d96785759e34a887ff2f8afe111),
    (512, "key-facebook"): (0xc2d3d8f59854407ebec83a4872026d237a8e09902eb51fd869ec4d4810808867, 0xfe4c29fec5f3584541b656fa675312ce08168144a5ca295657c5683b2ffa7f5f),
    (512, "key-facebook-pops"): (0xfbc9bd8fbeda7f98b9548cd437602f79b8c870feef10cf815794a7e05ca8156b, 0xc6436891674f7e673313d2ce6f1ee8f4bcbd1757c1886ebfcd68835ac359fa37),
    (512, "key-fastly"): (0xf0f5ef96c73cbbc2890fbb8a3f391a25f2c37970c9dabc89a6188153d3243123, 0xdac682fc0c8cd9dcb2ba11354303d48434d3e8a4b7c20552a917876999f107c1),
    (512, "key-google"): (0xd8f67c6adb412948b7c15655a71c5450c5bf1bed62acce128608df7483ac7d9d, 0xdf884dec71de36ed94cd32c5aacd6b080c74910ff5eeabbf2115752e1ad47783),
    (512, "key-google-customers"): (0xff8d0302b30054af482d09a9f0f676efd71ccdad85a1767ff7251e798a74bd9f, 0xd627d03e1fe53180181df17c3f4c613e1d50d34a1a1435165c51effa9320ed21),
    (512, "key-gts"): (0xf8638d3fe0935759d28c2e4a9ce7dd205bfcea69faabc73b0eb5b3d319a9c0d3, 0xc75b3deb53d227e06a1e90990cd0f0f8e74e729d2fb3cf73a72ef1a9d00b8361),
    (512, "key-gvs-home"): (0xd9aae5e6b00536f42a6a9e37eeb341dd7d14811b51d04907f8f770ab4f828087, 0xc7cf1b552da899872710f31b7665c83e366139cec99c1090ebf3221026cf3b53),
    (512, "key-gvs-pops"): (0xd83d395885b4cc634fa22806f1f5fa43a9795cf49c348aec2ce90fe9ed7440e9, 0xf9b62bdcc400473f7a993a44faaa4f48b0534c0d50a0ebfbc589aa24691f9bfd),
    (512, "key-h2o-individuals"): (0xd527e4f7743bef889d6dade9e04c7a5a2aa45b36286cee7a3711a19b723598b5, 0xd37b9fb4c6f4beee14a1659e7b04f62688e3fee8ecfb9460efc1f13f3fa7d85f),
    (512, "key-hostinger"): (0xd35bfb3ef83f9230b9d026423a064d1b53e17efe066ec5e502fc58d25ddd2687, 0xcb7937f6a00e406c120ae0381f38b5359f59273260f2830790783c6e4a46a547),
    (512, "key-ionos"): (0xe3c676001a01b70b27e1bcf30544a33c4bbd83c3d6dc140451de5825045927b9, 0xcf1a3a5f9a98e5c7f0fa22a49041ba66b86cc8668c9778fca87bbda12e32e687),
    (512, "key-jio"): (0xdbf77ab0db0c1718d10b6ed6b331d3047718a740c63a69fc0064e81e4648bc73, 0xc97e8f3657c3916a6df74266ad16654c38d01c685129efae2654175169c0fc71),
    (512, "key-legacy-gquic"): (0xd06dfcc588304c82a91df944a8d2a5e7953acd72e97c8fcf3387294af53067e7, 0xfdcfee8a384c4087cfaada632ce9364077525f4e726267ebded3c9e8a951d94f),
    (512, "key-linode"): (0xf7b190ff999e29fd9e61e3ad85c038c6fc83d380a10954c803446de09add7549, 0xd99c2093c89d9aebd9e09c56d540121588d02bd981dbd7ff76e03f05ca520fd1),
    (512, "key-litespeed-individuals"): (0xfd0bbd5b392692a6e2b254b8fbe0a85584b225defc7a0701630e743bc0c0cea3, 0xf4f3fede5c60c315166ef59f818a0bf8c3b9d87ba07487dbd39ac143c155c621),
    (512, "key-misc-clouds"): (0xdbee9701d4ad8486a59c58edb9fa4a70f1006140cee26dad9bec95ffa8c4c86d, 0xe4b122d194bf372687b553712cfc94164c62cacbc88e9055959e9bc42e94c499),
    (512, "key-misc-error"): (0xc6170e286fa2bedc20c93c5d0edf8f31954d5d654ec6eea929bd65116195c19b, 0xc7aedf4d026789dd96fb488f6275d7067c643cbe393e4550940a3155cb79f373),
    (512, "key-misc-timeout"): (0xeed6145e28482345c40967f6a67aabd68591d6818c585ea0500f3ad263587cbf, 0xc63f7e6578739f7bd7a67126e6af34c612c2d8f2ef42b33f3193ead06cca4a4d),
    (512, "key-nginx-individuals"): (0xea897a9010b842e586b30f709184eb1c376211d26826efc10c25b9660d5fc74f, 0xda5d0cc2778df4a8010822619ba0eb75d5e112dcc9ffa3b4a38f3c57d7eb1229),
    (512, "key-ovh"): (0xf01a745ee74b9b8708f342f9cc55a6f8242fec1bf3aded7caa444c7cf4cd4279, 0xf6dac1373f7f1f695dd3ad55dea6376bee3a8eab7127bb33452851701047aa13),
    (512, "key-privatesystems"): (0xc33c468cd0df651f6c6045fd2a46327547233864bde66385134ef91a5e1f6cd9, 0xe51e3bc76c633aa0bc88df4a1fc8da55adb6e2d65165d9916a41958a8d8c46bb),
    (512, "key-quic-only-legacy"): (0xc6e869c5d435ba7263063ca81747d6c429391ddf6c66e0229015413cf64b387b, 0xf994dd9e8d37930ec9a78044ec478056e49b6cd57db2600c46eda051e93144b5),
    (512, "key-synergy"): (0xd28191d2518968f8b8246e36a8034676fbc2462bd93a1aad18c76761b702ba17, 0xd20e5681f09e67b11d46e0d3d6536645c6393ba86913e47c3aa456ad6f70831f),
    (512, "key-yunjiasu"): (0xf35ee8cb58d64b2e12a12397cd7fdbbc2e6541cf01c304c4c9ef1ce92f56c80f, 0xd8c0c0ee1629941a5d02521f1309a0ce19026ef831c6e55821c4ddff4abc9347),
    (512, "selfsigned-akamai"): (0xe30f3b90e1ed088ac3af15a81324ffc2c337ec531fa8119b10e9dd6e8b63d02d, 0xfa30eb84880ae38a47f977afe9e12913a74fc58c3ba6e177c8720af971779bd9),
    (512, "selfsigned-facebook"): (0xd99f7bbba7cc0d2181510f46ac89d1217ff962c45e707bf986aacfbdcc23f641, 0xd7925324b3b68ef690b5bc61a5cfcef45cf30b75ee7268db00fa0385d26705d3),
    (512, "selfsigned-facebook-pops"): (0xe1441c4a3e3502e4851f8e00d507252f443812e1fc618c6e9ae16d022c9c485b, 0xd6bebd8e89d6517e32f535206642fe99d6e748129c64c6cd18eee55c6da025c5),
    (512, "selfsigned-google"): (0xe9f2c2440448a18e5b78f04eec0a4625184213c347a276e5204f293cd515fad1, 0xdb22acde2649358315614d41e4c2431336b4ba579f0c376471566d07ae6f6539),
    (512, "selfsigned-gvs-home"): (0xd9aefc6e44e7f148ee05cf632648f70d12a787d4c78ec5656e89ef1a40c1e071, 0xe2be6cdef5b5fd10244a5d79eba9dfd4c9dbe0080a42ea737e0ef91768e2e593),
    (512, "selfsigned-gvs-pops"): (0xe18b712538da8e722e502c1b0229fbbf9e026a36692f5a96fff31532422190d3, 0xe04ad95962f4b448277ef549c23633f08118638d5fa9faadb5e8b9b63e940a51),
    (512, "selfsigned-jio"): (0xceff59b5ff2add98b03d93a8dbc6b76d2c575d46dc45de4fec4417101ec19075, 0xc3d99773443431ce5e0e44c0914996dc730bbc9e6c3b0dd521a9d7a0a3f31989),
    (512, "selfsigned-legacy-gquic"): (0xd0bc32f383e17e87ee018bbcccfcbfe1caa4d435869706cc6a3d81bb058d461d, 0xd1680560bafbd5a7cf9e2febf75c189ce522c39fe7dd9cc658fe9496519a8959),
    (512, "selfsigned-quic-only-legacy"): (0xc0bc1aa38c02e7522a10323e9169493b66daaecc197d77ce6d0d3a2e24d6178f, 0xff8b6afc48e123f4cc3c87d379900ea3db3f7e512bf87d41f23a075faa36f02d),
}
